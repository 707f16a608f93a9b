package cluster

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"rapid/internal/coltypes"
	"rapid/internal/obs"
	"rapid/internal/ops"
	"rapid/internal/qef"
	"rapid/internal/storage"
)

// propQuery builds a bare query over n nodes with a fresh registry — just
// enough machinery to drive the exchange operators directly.
func propQuery(n int) *query {
	return &query{
		reg:   obs.NewRegistry(),
		link:  DefaultLinkModel(),
		goCtx: context.Background(),
		nctx:  make([]*qef.Context, n),
	}
}

// pairRelation builds a two-column (key, payload) relation.
func pairRelation(ks, vs []int64) *ops.Relation {
	return ops.MustRelation([]ops.Col{
		{Name: "k", Type: coltypes.Int(), Data: coltypes.Of(ks)},
		{Name: "v", Type: coltypes.Int(), Data: coltypes.Of(vs)},
	})
}

// pairBag renders a set of relations as one sorted (key, payload) multiset.
func pairBag(rels ...*ops.Relation) []string {
	var out []string
	for _, rel := range rels {
		if rel == nil {
			continue
		}
		for r := 0; r < rel.Rows(); r++ {
			out = append(out, fmt.Sprintf("%d|%d", rel.Cols[0].Data.Get(r), rel.Cols[1].Data.Get(r)))
		}
	}
	sort.Strings(out)
	return out
}

func bagsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestExchangeConservationProperty is the testing/quick battery for the
// exchange operators: for random inputs and node counts, shuffle, broadcast
// and gather must conserve rows and values (rows in == rows out for
// shuffle/gather, rows out == union × N for broadcast), bill moved bytes as
// exactly moved rows × the 8-byte wire width, route every shuffled row to
// NodeFor(key), and reconcile all of it against the rapid_net_* counters.
func TestExchangeConservationProperty(t *testing.T) {
	prop := func(keys []int16, width uint8) bool {
		n := 1 + int(width)%8 // 1..8 nodes
		// Deal rows round-robin into per-node inputs; nodes left with no
		// rows get a nil input (the executor's empty-shard representation).
		ks := make([][]int64, n)
		vs := make([][]int64, n)
		for i, k := range keys {
			ks[i%n] = append(ks[i%n], int64(k))
			vs[i%n] = append(vs[i%n], int64(i))
		}
		parts := make([]*ops.Relation, n)
		totalRows := int64(0)
		for i := 0; i < n; i++ {
			if len(ks[i]) == 0 {
				continue
			}
			parts[i] = pairRelation(ks[i], vs[i])
			totalRows += int64(len(ks[i]))
		}
		inBag := pairBag(parts...)
		const rowBytes = 2 * 8

		q := propQuery(n)
		sm := &storage.ShardMap{Policy: storage.HashSharded, Nodes: n}

		// Shuffle: conservation, routing, byte billing.
		outs, err := q.shuffle(parts, 0, sm, "prop")
		if err != nil {
			t.Log(err)
			return false
		}
		sh := q.stats[len(q.stats)-1]
		var outRows int64
		for d, rel := range outs {
			outRows += int64(rel.Rows())
			for r := 0; r < rel.Rows(); r++ {
				if sm.NodeFor(rel.Cols[0].Data.Get(r)) != d {
					t.Logf("shuffle delivered key %d to node %d", rel.Cols[0].Data.Get(r), d)
					return false
				}
			}
		}
		if sh.RowsIn != totalRows || sh.RowsOut != totalRows || outRows != totalRows {
			t.Logf("shuffle rows in=%d out=%d delivered=%d want %d", sh.RowsIn, sh.RowsOut, outRows, totalRows)
			return false
		}
		if !bagsEqual(inBag, pairBag(outs...)) {
			t.Log("shuffle did not conserve the value multiset")
			return false
		}
		if sh.MovedBytes != sh.MovedRows*rowBytes {
			t.Logf("shuffle moved %d bytes for %d rows", sh.MovedBytes, sh.MovedRows)
			return false
		}

		// Broadcast: every node receives the full union.
		bcast, err := q.broadcast(parts, "prop")
		if err != nil {
			t.Log(err)
			return false
		}
		bc := q.stats[len(q.stats)-1]
		if bc.RowsIn != totalRows || int64(bcast.Rows()) != totalRows {
			t.Logf("broadcast union %d rows, want %d", bcast.Rows(), totalRows)
			return false
		}
		if bc.RowsOut != totalRows*int64(n) || bc.MovedRows != totalRows*int64(n-1) {
			t.Logf("broadcast out=%d moved=%d for %d rows on %d nodes", bc.RowsOut, bc.MovedRows, totalRows, n)
			return false
		}
		if !bagsEqual(inBag, pairBag(bcast)) {
			t.Log("broadcast did not conserve the value multiset")
			return false
		}
		if bc.MovedBytes != bc.MovedRows*rowBytes {
			t.Logf("broadcast moved %d bytes for %d rows", bc.MovedBytes, bc.MovedRows)
			return false
		}

		// Gather: the coordinator sees exactly the union, every row billed.
		gathered, err := q.gather(parts, "prop")
		if err != nil {
			t.Log(err)
			return false
		}
		ga := q.stats[len(q.stats)-1]
		if ga.RowsIn != totalRows || ga.RowsOut != totalRows || ga.MovedRows != totalRows {
			t.Logf("gather in=%d out=%d moved=%d want %d", ga.RowsIn, ga.RowsOut, ga.MovedRows, totalRows)
			return false
		}
		if !bagsEqual(inBag, pairBag(gathered)) {
			t.Log("gather did not conserve the value multiset")
			return false
		}
		if ga.MovedBytes != ga.MovedRows*rowBytes {
			t.Logf("gather moved %d bytes for %d rows", ga.MovedBytes, ga.MovedRows)
			return false
		}

		// All three exchanges must reconcile with the net_* counters and the
		// query's running totals.
		var rows, bytes, tiles int64
		for _, st := range q.stats {
			rows += st.MovedRows
			bytes += st.MovedBytes
			tiles += st.Tiles
		}
		if q.netRows != rows || q.netBytes != bytes || q.netTiles != tiles {
			t.Logf("query totals (%d, %d, %d) != stat sums (%d, %d, %d)",
				q.netRows, q.netBytes, q.netTiles, rows, bytes, tiles)
			return false
		}
		counter := func(name string) int64 { return q.reg.Counter(name).Value() }
		if counter("rapid_net_rows_total") != rows ||
			counter("rapid_net_bytes_total") != bytes ||
			counter("rapid_net_tiles_total") != tiles {
			t.Logf("net counters (%d, %d, %d) != stat sums (%d, %d, %d)",
				counter("rapid_net_rows_total"), counter("rapid_net_bytes_total"),
				counter("rapid_net_tiles_total"), rows, bytes, tiles)
			return false
		}
		if counter("rapid_net_exchanges_total") != 3 ||
			counter("rapid_net_shuffles_total") != 1 ||
			counter("rapid_net_broadcasts_total") != 1 ||
			counter("rapid_net_gathers_total") != 1 {
			t.Log("per-kind exchange counters do not match one shuffle + one broadcast + one gather")
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
