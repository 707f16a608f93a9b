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
	return ops.MustRelation([]ops.Col{{Name: "k", Type: coltypes.Int()}, {Name: "v", Type: coltypes.Int()}},
		[]coltypes.Data{coltypes.Of(ks), coltypes.Of(vs)})
}

// pairBag renders a set of relations as one sorted (key, payload) multiset.
func pairBag(rels ...*ops.Relation) []string {
	var out []string
	for _, rel := range rels {
		if rel == nil {
			continue
		}
		for r := 0; r < rel.Rows(); r++ {
			out = append(out, fmt.Sprintf("%d|%d", rel.Col(0).Get(r), rel.Col(1).Get(r)))
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

// TestExchangeConservationProperty is the testing/quick battery for exchange
// accounting. Every count of an exchange record comes from one derivation
// over its stream matrix, so the conservation laws are checked there, over
// random matrices and source rows: rows out are the streams' sum, moved rows
// the cross-node streams', moved bytes moved rows × the wire width, tiles the
// cross-node streams' tiles, flows sum to the moved rows, and the per-source
// and per-destination rows are the matrix's row and column sums. Per kind,
// for random inputs on 1..8 nodes, shuffle, broadcast and gather then need
// only conserve the value multiset (shuffle routing every row to
// NodeFor(key)), build the stream matrix their kind implies, price their
// link seconds as they always have, and reconcile with the rapid_net_*
// counters.
func TestExchangeConservationProperty(t *testing.T) {
	link := DefaultLinkModel()
	derivation := func(cells, in []uint16, nodes, cols uint8, toCoord bool) bool {
		n := 1 + int(nodes)%8
		dests := n
		if toCoord {
			dests = n + 1
		}
		streams := newMatrix(n, dests)
		for i := range streams {
			for d := range streams[i] {
				if k := i*dests + d; k < len(cells) {
					streams[i][d] = int64(cells[k])
				}
			}
		}
		rowsIn := make([]int64, n)
		var sumIn int64
		for i := range rowsIn {
			if i < len(in) {
				rowsIn[i] = int64(in[i])
				sumIn += rowsIn[i]
			}
		}
		rowBytes := 8 * (1 + int(cols)%6)
		ex := &obs.ExchangeSpan{Streams: streams}
		link.derive(ex, rowsIn, rowBytes)

		var out, moved, tiles int64
		for s, row := range streams {
			var rowSum int64
			for d, rows := range row {
				rowSum += rows
				out += rows
				if d != s {
					moved += rows
					tiles += link.Tiles(int(rows))
				}
			}
			if ex.PerSourceRows[s] != rowSum {
				t.Logf("PerSourceRows[%d] = %d, row sum %d", s, ex.PerSourceRows[s], rowSum)
				return false
			}
		}
		for d := 0; d < dests; d++ {
			var colSum int64
			for s := range streams {
				colSum += streams[s][d]
			}
			if ex.PerDestRows[d] != colSum {
				t.Logf("PerDestRows[%d] = %d, column sum %d", d, ex.PerDestRows[d], colSum)
				return false
			}
		}
		var flowed int64
		for _, f := range ex.Flows() {
			flowed += f.Rows
		}
		if ex.RowsIn != sumIn || ex.RowsOut != out || ex.MovedRows != moved || flowed != moved ||
			ex.MovedBytes != moved*int64(rowBytes) || ex.Tiles != tiles || len(ex.PerDestRows) != dests {
			t.Logf("derived in=%d out=%d moved=%d bytes=%d tiles=%d flows=%d, want %d %d %d %d %d %d",
				ex.RowsIn, ex.RowsOut, ex.MovedRows, ex.MovedBytes, ex.Tiles, flowed,
				sumIn, out, moved, moved*int64(rowBytes), tiles, moved)
			return false
		}
		return true
	}
	if err := quick.Check(derivation, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}

	exchanges := func(keys []int16, width uint8) bool {
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
		for i := 0; i < n; i++ {
			if len(ks[i]) > 0 {
				parts[i] = pairRelation(ks[i], vs[i])
			}
		}
		inBag := pairBag(parts...)
		const rowBytes = 2 * 8
		q := propQuery(n)
		sm := &storage.ShardMap{Policy: storage.HashSharded, Nodes: n}
		// check compares the last record with the matrix its kind implies
		// and the link seconds priced the way that kind prices them.
		check := func(kind string, streams [][]int64, seconds float64) bool {
			ex := q.exchanges[len(q.exchanges)-1]
			if ex.Kind != kind || fmt.Sprint(ex.Streams) != fmt.Sprint(streams) || ex.Seconds != seconds {
				t.Logf("%s: streams %v, %g s; want %s %v, %g s", ex.Kind, ex.Streams, ex.Seconds, kind, streams, seconds)
				return false
			}
			return true
		}

		// Shuffle: every row on NodeFor(key); cross-node streams priced one
		// by one, source-major.
		outs, err := q.shuffle(parts, 0, sm, "prop")
		if err != nil {
			t.Log(err)
			return false
		}
		for d, rel := range outs {
			for r := 0; r < rel.Rows(); r++ {
				if sm.NodeFor(rel.Col(0).Get(r)) != d {
					t.Logf("shuffle delivered key %d to node %d", rel.Col(0).Get(r), d)
					return false
				}
			}
		}
		if !bagsEqual(inBag, pairBag(outs...)) {
			t.Log("shuffle did not conserve the value multiset")
			return false
		}
		shuffled := newMatrix(n, n)
		for s := range ks {
			for _, k := range ks[s] {
				shuffled[s][sm.NodeFor(k)]++
			}
		}
		var seconds float64
		for s, row := range shuffled {
			for d, rows := range row {
				if d != s {
					seconds += q.link.TransferSeconds(int(rows), rowBytes)
				}
			}
		}
		if !check("shuffle", shuffled, seconds) {
			return false
		}

		// Broadcast: every source streams its rows to every node; each
		// source's N-1 link copies priced together.
		bcast, err := q.broadcast(parts, "prop")
		if err != nil {
			t.Log(err)
			return false
		}
		if !bagsEqual(inBag, pairBag(bcast)) {
			t.Log("broadcast did not conserve the value multiset")
			return false
		}
		broadcasted := newMatrix(n, n)
		seconds = 0
		for s := range ks {
			for d := range broadcasted[s] {
				broadcasted[s][d] = int64(len(ks[s]))
			}
			seconds += q.link.TransferSeconds(len(ks[s]), rowBytes) * float64(n-1)
		}
		if !check("broadcast", broadcasted, seconds) {
			return false
		}

		// Gather: the coordinator (destination N) receives exactly the
		// union, one stream per source.
		gathered, err := q.gather(parts, "prop")
		if err != nil {
			t.Log(err)
			return false
		}
		if !bagsEqual(inBag, pairBag(gathered)) {
			t.Log("gather did not conserve the value multiset")
			return false
		}
		toCoord := newMatrix(n, n+1)
		seconds = 0
		for s := range ks {
			toCoord[s][n] = int64(len(ks[s]))
			seconds += q.link.TransferSeconds(len(ks[s]), rowBytes)
		}
		if !check("gather", toCoord, seconds) {
			return false
		}

		// All three records reconcile with the net_* counters.
		var rows, bytes, tiles int64
		for _, ex := range q.exchanges {
			rows += ex.MovedRows
			bytes += ex.MovedBytes
			tiles += ex.Tiles
		}
		counter := func(name string) int64 { return q.reg.Counter(name).Value() }
		if counter("rapid_net_rows_total") != rows ||
			counter("rapid_net_bytes_total") != bytes ||
			counter("rapid_net_tiles_total") != tiles {
			t.Logf("net counters (%d, %d, %d) != record sums (%d, %d, %d)",
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
	if err := quick.Check(exchanges, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The reference kernels below are the exchange operators written the
// obvious way — one row at a time, one cell at a time, growing by append.
// The columnar kernels must deliver exactly the same rows in the same order.

func refColumns(proto *ops.Relation) [][]int64 { return make([][]int64, proto.NumCols()) }

func refAppendRow(dst [][]int64, rel *ops.Relation, r int) {
	for c := range rel.Cols {
		dst[c] = append(dst[c], rel.Col(c).Get(r))
	}
}

func refShuffle(parts []*ops.Relation, keyCol int, sm *storage.ShardMap, n int) (outs [][][]int64, streams [][]int64) {
	proto := firstNonNil(parts)
	outs, streams = make([][][]int64, n), make([][]int64, n)
	for d := range outs {
		outs[d], streams[d] = refColumns(proto), make([]int64, n)
	}
	for src, rel := range parts {
		if rel == nil {
			continue
		}
		for r := 0; r < rel.Rows(); r++ {
			d := sm.NodeFor(rel.Col(keyCol).Get(r))
			refAppendRow(outs[d], rel, r)
			streams[src][d]++
		}
	}
	return outs, streams
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
		data := got.Col(c)
		if data.Width() != coltypes.W8 || col.Name != proto.Cols[c].Name || col.Type != proto.Cols[c].Type {
			t.Fatalf("%s: column %d is %q %v width %d, want %q %v width 8",
				what, c, col.Name, col.Type, data.Width(), proto.Cols[c].Name, proto.Cols[c].Type)
		}
		if data.Len() != len(want[c]) {
			t.Fatalf("%s: column %d has %d rows, want %d", what, c, data.Len(), len(want[c]))
		}
		for r, v := range data.I64() {
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
		cols, data := make([]ops.Col, 4), make([]coltypes.Data, 4)
		for c := range cols {
			w := widths[(c+i)%4]
			lo, hi := w.MinInt(), w.MaxInt()
			if w == coltypes.W8 {
				lo, hi = -1<<40, 1<<40 // past 32 bits, and hi-lo still fits
			}
			if c == 0 {
				lo, hi = max(lo, -100), min(hi, 100) // repeating keys, both signs
			}
			cols[c] = ops.Col{Name: fmt.Sprintf("c%d", c), Type: coltypes.Int()}
			data[c] = coltypes.FromInt64s(w, vals(lo, hi))
		}
		parts[i] = ops.MustRelation(cols, data)
	}
	return parts
}

// TestExchangeKernelsMatchReference runs the columnar shuffle, broadcast,
// gather and sliceModulo against the per-row reference on inputs of every
// storage width, with nil and zero-row parts, on 1..8 nodes, through hash
// maps over the tray's width and over one node fewer (the last node receives
// nothing), with inputs longer than one LinkModel.TileRows tile.
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
			sm.Nodes = max(1, n-1)
		}
		what := func(kernel string) string {
			return fmt.Sprintf("iter %d, %d nodes, hash over %d: %s", iter, n, sm.Nodes, kernel)
		}
		q := propQuery(n)

		outs, err := q.shuffle(parts, 0, sm, "ref")
		if err != nil {
			t.Fatal(err)
		}
		wantOuts, wantStreams := refShuffle(parts, 0, sm, n)
		ex := q.exchanges[len(q.exchanges)-1]
		for d := range outs {
			sameRows(t, what(fmt.Sprintf("shuffle to node %d", d)), outs[d], proto, wantOuts[d])
			if ex.PerDestRows[d] != int64(outs[d].Rows()) {
				t.Fatalf("%s: PerDestRows[%d] = %d, delivered %d", what("shuffle"), d, ex.PerDestRows[d], outs[d].Rows())
			}
			for s := range outs {
				if ex.Streams[s][d] != wantStreams[s][d] {
					t.Fatalf("%s: Streams[%d][%d] = %d, want %d", what("shuffle"), s, d, ex.Streams[s][d], wantStreams[s][d])
				}
			}
		}
		var rowsIn int64
		for _, rel := range parts {
			rowsIn += int64(rowsOf(rel))
		}

		union := refConcat(parts)
		full, err := q.broadcast(parts, "ref")
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, what("broadcast"), full, proto, union)
		if ex = q.exchanges[len(q.exchanges)-1]; ex.MovedRows != rowsIn*int64(n-1) {
			t.Fatalf("%s: MovedRows %d, want %d", what("broadcast"), ex.MovedRows, rowsIn*int64(n-1))
		}

		gathered, err := q.gather(parts, "ref")
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, what("gather"), gathered, proto, union)
		if ex = q.exchanges[len(q.exchanges)-1]; ex.MovedRows != rowsIn || ex.PerDestRows[n] != rowsIn {
			t.Fatalf("%s: MovedRows %d, to the coordinator %d, want %d", what("gather"), ex.MovedRows, ex.PerDestRows[n], rowsIn)
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
			if len(q.exchanges) != 0 || q.reg.Counter("rapid_net_exchanges_total").Value() != 0 {
				t.Fatalf("%s cancelled at check %d still recorded an exchange", name, at)
			}
		}
	}
}
