package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
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

// shuffle is both passes of a shuffle exchange: row r of every input lands on
// node part.NodeFor(r[keyCol]).
func (q *query) shuffle(parts []*ops.Relation, keyCol int, part *storage.ShardMap, label string) ([]*ops.Relation, error) {
	rt, err := q.route(parts, keyCol, part)
	if err != nil {
		return nil, err
	}
	return q.deliver(parts, rt, label)
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

// The reference kernels below are the exchange operators written the
// obvious way — one row at a time, one cell at a time, growing by append.
// The columnar kernels must deliver exactly the same rows in the same order.

func refColumns(proto *ops.Relation) [][]int64 { return make([][]int64, proto.NumCols()) }

func refAppendRow(dst [][]int64, rel *ops.Relation, r int) {
	for c := range rel.Cols {
		dst[c] = append(dst[c], rel.Cols[c].Data.Get(r))
	}
}

func refShuffle(parts []*ops.Relation, keyCol int, sm *storage.ShardMap, n int) (outs [][][]int64, moved [][]int64) {
	proto := firstNonNil(parts)
	outs, moved = make([][][]int64, n), make([][]int64, n)
	for d := range outs {
		outs[d], moved[d] = refColumns(proto), make([]int64, n)
	}
	for src, rel := range parts {
		if rel == nil {
			continue
		}
		for r := 0; r < rel.Rows(); r++ {
			d := sm.NodeFor(rel.Cols[keyCol].Data.Get(r))
			refAppendRow(outs[d], rel, r)
			if d != src {
				moved[src][d]++
			}
		}
	}
	return outs, moved
}

func refConcat(parts []*ops.Relation) [][]int64 {
	out := refColumns(firstNonNil(parts))
	for _, rel := range parts {
		if rel == nil {
			continue
		}
		for r := 0; r < rel.Rows(); r++ {
			refAppendRow(out, rel, r)
		}
	}
	return out
}

func refSliceModulo(rel *ops.Relation, node, n int) [][]int64 {
	out := refColumns(rel)
	for r := node; r < rel.Rows(); r += n {
		refAppendRow(out, rel, r)
	}
	return out
}

// sameRows compares a kernel's output with the reference, row for row, and
// checks it is in the 8-byte wire format with the input's column metadata.
func sameRows(t *testing.T, what string, got *ops.Relation, proto *ops.Relation, want [][]int64) {
	t.Helper()
	if got.NumCols() != len(want) {
		t.Fatalf("%s: %d columns, want %d", what, got.NumCols(), len(want))
	}
	for c, col := range got.Cols {
		if col.Data.Width() != coltypes.W8 || col.Name != proto.Cols[c].Name || col.Type != proto.Cols[c].Type {
			t.Fatalf("%s: column %d is %q %v width %d, want %q %v width 8",
				what, c, col.Name, col.Type, col.Data.Width(), proto.Cols[c].Name, proto.Cols[c].Type)
		}
		if col.Data.Len() != len(want[c]) {
			t.Fatalf("%s: column %d has %d rows, want %d", what, c, col.Data.Len(), len(want[c]))
		}
		for r, v := range col.Data.I64() {
			if v != want[c][r] {
				t.Fatalf("%s: row %d column %d = %d, want %d", what, r, c, v, want[c][r])
			}
		}
	}
}

// randomParts deals random rows into per-node inputs whose four columns are
// stored 1, 2, 4 and 8 bytes wide (column order rotating with the node, so
// one output column is fed from every width); some nodes get a nil input,
// some a zero-row one. Column 0 is the key.
func randomParts(rng *rand.Rand, n, maxRows int) []*ops.Relation {
	parts := make([]*ops.Relation, n)
	for i := range parts {
		rows := rng.Intn(maxRows + 1)
		switch rng.Intn(6) {
		case 0:
			continue // nil input
		case 1:
			rows = 0
		}
		vals := func(lo, hi int64) []int64 {
			out := make([]int64, rows)
			for r := range out {
				out[r] = lo + rng.Int63n(hi-lo+1)
			}
			return out
		}
		widths := []coltypes.Width{coltypes.W1, coltypes.W2, coltypes.W4, coltypes.W8}
		cols := make([]ops.Col, 4)
		for c := range cols {
			w := widths[(c+i)%4]
			lo, hi := w.MinInt(), w.MaxInt()
			if w == coltypes.W8 {
				lo, hi = -1<<40, 1<<40 // past 32 bits, and hi-lo still fits
			}
			if c == 0 {
				lo, hi = max(lo, -100), min(hi, 100) // repeating keys, both signs
			}
			cols[c] = ops.Col{Name: fmt.Sprintf("c%d", c), Type: coltypes.Int(), Data: coltypes.FromInt64s(w, vals(lo, hi))}
		}
		parts[i] = ops.MustRelation(cols)
	}
	return parts
}

// TestExchangeKernelsMatchReference runs the columnar shuffle, broadcast,
// gather and sliceModulo against the per-row reference on inputs of every
// storage width, with nil and zero-row parts, on 1..8 nodes, through hash and
// range shard maps, with inputs longer than one LinkModel.TileRows tile.
func TestExchangeKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for iter := 0; iter < 120; iter++ {
		n := 1 + iter%8
		maxRows := 40
		if iter%3 == 0 {
			maxRows = 3 * DefaultLinkModel().TileRows
		}
		parts := randomParts(rng, n, maxRows)
		proto := firstNonNil(parts)
		sm := &storage.ShardMap{Policy: storage.HashSharded, Nodes: n}
		if iter%2 == 1 {
			sm = &storage.ShardMap{Policy: storage.RangeSharded, Nodes: n}
			for b := 1; b < n; b++ {
				sm.Bounds = append(sm.Bounds, int64(-100+200*b/n))
			}
			if err := sm.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		what := func(kernel string) string {
			return fmt.Sprintf("iter %d, %d nodes, %s: %s", iter, n, sm.Policy, kernel)
		}
		q := propQuery(n)

		outs, err := q.shuffle(parts, 0, sm, "ref")
		if err != nil {
			t.Fatal(err)
		}
		wantOuts, wantMoved := refShuffle(parts, 0, sm, n)
		st := q.stats[len(q.stats)-1]
		var matrixTotal, rowsIn int64
		for d := range outs {
			sameRows(t, what(fmt.Sprintf("shuffle to node %d", d)), outs[d], proto, wantOuts[d])
			if st.PerNodeRows[d] != int64(outs[d].Rows()) {
				t.Fatalf("%s: PerNodeRows[%d] = %d, delivered %d", what("shuffle"), d, st.PerNodeRows[d], outs[d].Rows())
			}
			for s := range outs {
				if st.MovedMatrix[s][d] != wantMoved[s][d] {
					t.Fatalf("%s: MovedMatrix[%d][%d] = %d, want %d", what("shuffle"), s, d, st.MovedMatrix[s][d], wantMoved[s][d])
				}
				matrixTotal += st.MovedMatrix[s][d]
			}
		}
		for src, rel := range parts {
			if rel != nil {
				rowsIn += int64(rel.Rows())
				if st.PerSourceRows[src] != int64(rel.Rows()) {
					t.Fatalf("%s: PerSourceRows[%d] = %d, want %d", what("shuffle"), src, st.PerSourceRows[src], rel.Rows())
				}
			}
		}
		if matrixTotal != st.MovedRows || st.RowsIn != rowsIn || st.RowsOut != rowsIn {
			t.Fatalf("%s: MovedMatrix total %d, MovedRows %d; rows in %d out %d, want %d",
				what("shuffle"), matrixTotal, st.MovedRows, st.RowsIn, st.RowsOut, rowsIn)
		}

		union := refConcat(parts)
		full, err := q.broadcast(parts, "ref")
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, what("broadcast"), full, proto, union)
		st = q.stats[len(q.stats)-1]
		matrixTotal = 0
		for s := range st.MovedMatrix {
			for _, rows := range st.MovedMatrix[s] {
				matrixTotal += rows
			}
		}
		if matrixTotal != st.MovedRows || st.MovedRows != rowsIn*int64(n-1) {
			t.Fatalf("%s: MovedMatrix total %d, MovedRows %d, want %d", what("broadcast"), matrixTotal, st.MovedRows, rowsIn*int64(n-1))
		}

		gathered, err := q.gather(parts, "ref")
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, what("gather"), gathered, proto, union)
		if st = q.stats[len(q.stats)-1]; st.MovedRows != rowsIn || st.MovedMatrix != nil {
			t.Fatalf("%s: MovedRows %d (want %d), MovedMatrix %v (want none)", what("gather"), st.MovedRows, rowsIn, st.MovedMatrix)
		}

		for node := 0; node < n; node++ {
			sameRows(t, what(fmt.Sprintf("sliceModulo %d", node)), sliceModulo(full, node, n), proto, refSliceModulo(full, node, n))
		}
	}
}

// expiring is a context that reports cancellation from its checks-th Err
// call on — a cancellation landing in the middle of an exchange.
type expiring struct {
	context.Context
	checks *int
}

func (c expiring) Err() error {
	if *c.checks--; *c.checks < 0 {
		return context.Canceled
	}
	return nil
}

// TestExchangeCancelledMidway: a context cancelled between two tiles of an
// exchange makes it return the context's error and no partial result, and
// leaves no trace of the exchange in the query's statistics or the counters.
func TestExchangeCancelledMidway(t *testing.T) {
	const n = 3
	rows := 4 * DefaultLinkModel().TileRows
	ks, vs := make([]int64, rows), make([]int64, rows)
	for i := range ks {
		ks[i], vs[i] = int64(i), int64(-i)
	}
	parts := []*ops.Relation{pairRelation(ks, vs), nil, pairRelation(ks[:rows/2], vs[:rows/2])}
	sm := &storage.ShardMap{Policy: storage.HashSharded, Nodes: n}
	kernels := map[string]func(q *query) (any, error){
		"shuffle":   func(q *query) (any, error) { r, err := q.shuffle(parts, 0, sm, "x"); return r, err },
		"broadcast": func(q *query) (any, error) { r, err := q.broadcast(parts, "x"); return r, err },
		"gather":    func(q *query) (any, error) { r, err := q.gather(parts, "x"); return r, err },
	}
	for name, run := range kernels {
		// Uncancelled, the kernel checks the context once per tile (the
		// shuffle on both of its passes): count the checks, then cancel at
		// every one of them in turn.
		total := 1 << 30
		q := propQuery(n)
		q.goCtx = expiring{context.Background(), &total}
		if _, err := run(q); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checks := 1<<30 - total
		if perPass := (rows + rows/2) / DefaultLinkModel().TileRows; checks < perPass {
			t.Fatalf("%s observed the context %d times over %d tiles", name, checks, perPass)
		}
		for at := 0; at < checks; at++ {
			left := at
			q := propQuery(n)
			q.goCtx = expiring{context.Background(), &left}
			res, err := run(q)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s cancelled at check %d/%d: err = %v, want context.Canceled", name, at, checks, err)
			}
			switch r := res.(type) {
			case []*ops.Relation:
				if r != nil {
					t.Fatalf("%s cancelled at check %d returned a partial result", name, at)
				}
			case *ops.Relation:
				if r != nil {
					t.Fatalf("%s cancelled at check %d returned a partial result", name, at)
				}
			}
			if len(q.stats) != 0 || q.netBytes != 0 || q.reg.Counter("rapid_net_exchanges_total").Value() != 0 {
				t.Fatalf("%s cancelled at check %d still recorded an exchange", name, at)
			}
		}
	}
}
