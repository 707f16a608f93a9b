package ops

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"rapid/internal/coltypes"
	"rapid/internal/plan"
	"rapid/internal/qef"
)

// tileLog records, per scan unit, every tile it forwards: its row count and
// its rows' values.
type tileLog struct {
	mu    *sync.Mutex
	tiles map[int][]string
	next  qef.Operator
}

func (l *tileLog) DMEMSize(tileRows int) int   { return l.next.DMEMSize(tileRows) }
func (l *tileLog) Open(tc *qef.TaskCtx) error  { return l.next.Open(tc) }
func (l *tileLog) Close(tc *qef.TaskCtx) error { return l.next.Close(tc) }
func (l *tileLog) Produce(tc *qef.TaskCtx, t *qef.Tile) error {
	rows := fmt.Sprint(t.N)
	for i := 0; i < t.N; i++ {
		for _, c := range t.Cols {
			rows += fmt.Sprintf(" %d", c.Get(i))
		}
	}
	l.mu.Lock()
	l.tiles[tc.Seq] = append(l.tiles[tc.Seq], rows)
	l.mu.Unlock()
	return l.next.Produce(tc, t)
}

// TestRelationScanStraddlingTiles: a relation cut into chunks of 1, 63, 64,
// 255, 256, 257 and 5000 rows scans as the same rows in one chunk do — the
// same tiles in the same order, the same result, and a bill equal in every
// cycle, DMS byte and float — the tiles that straddle a chunk boundary
// gathered, the rest viewed in place.
func TestRelationScanStraddlingTiles(t *testing.T) {
	sizes := []int{1, 63, 64, 255, 256, 257, 5000}
	widths := []coltypes.Width{coltypes.W1, coltypes.W4, coltypes.W8}
	cols := make([]Col, len(widths))
	var chunks [][]coltypes.Data
	row := 0
	for _, n := range sizes {
		chunk := make([]coltypes.Data, len(widths))
		for c, w := range widths {
			cols[c] = Col{Name: fmt.Sprintf("c%d", c), Type: coltypes.Int()}
			chunk[c] = coltypes.New(w, n)
			for i := 0; i < n; i++ {
				chunk[c].Set(i, int64((row+i)*(c+3)%100))
			}
		}
		chunks, row = append(chunks, chunk), row+n
	}
	chunked := MustRelation(cols, chunks...)
	flat := chunked.Flatten()
	scan := func(mode qef.Mode, rel *Relation) (map[int][]string, *Relation, qef.Usage) {
		ctx := qef.NewContext(mode)
		mu, tiles, sink := &sync.Mutex{}, map[int][]string{}, NewCollectSink(cols)
		chain := func() qef.Operator { // one instance per core
			filter := &FilterOp{Pred: &ConstCmp{Col: 1, Op: plan.LT, Val: 70}, Next: sink}
			return &tileLog{mu: mu, tiles: tiles, next: filter}
		}
		if err := RelationScan(ctx, rel, 256, chain); err != nil {
			t.Fatal(err)
		}
		return tiles, sink.Relation().Flatten(), ctx.Usage()
	}
	for _, mode := range []qef.Mode{qef.ModeX86, qef.ModeDPU} {
		wantTiles, wantRel, wantBill := scan(mode, flat)
		gotTiles, gotRel, gotBill := scan(mode, chunked)
		if !reflect.DeepEqual(gotTiles, wantTiles) {
			t.Errorf("%s: the chunked relation's tiles differ from one chunk's", mode)
		}
		if !reflect.DeepEqual(valuesOf(gotRel), valuesOf(wantRel)) {
			t.Errorf("%s: the chunked relation's result differs from one chunk's", mode)
		}
		if !reflect.DeepEqual(gotBill, wantBill) {
			t.Errorf("%s: bill %+v, one chunk's %+v", mode, gotBill, wantBill)
		}
	}
}

// valuesOf widens a one-chunk relation to plain values.
func valuesOf(r *Relation) [][]int64 {
	out := make([][]int64, r.NumCols())
	for c := range out {
		out[c] = coltypes.ToInt64s(r.Col(c))
	}
	return out
}
