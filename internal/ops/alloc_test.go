package ops

import (
	"testing"

	"rapid/internal/bits"
	"rapid/internal/coltypes"
	"rapid/internal/plan"
	"rapid/internal/qef"
)

// --- DMEMSize conformance -------------------------------------------------
//
// Every operator declares its per-tile DMEM need via DMEMSize, and the task
// former sizes tiles from those declarations. Since the per-core pool now
// serves all tile-lifetime scratch, the declaration must be an upper bound
// on observed pool usage — a mismatch here is exactly the accounting bug
// class this test pins down.

const confTileRows = 256

// confTile builds a 3-column tile (W4, W8, W4) from plain allocations so
// the tile itself never touches the pool.
func confTile(n int) *qef.Tile {
	widths := []coltypes.Width{coltypes.W4, coltypes.W8, coltypes.W4}
	cols := make([]coltypes.Data, len(widths))
	for c, w := range widths {
		d := coltypes.New(w, n)
		for i := 0; i < n; i++ {
			d.Set(i, int64((i*7+c)%100))
		}
		cols[c] = d
	}
	return &qef.Tile{Cols: cols, N: n}
}

func withSel(t *qef.Tile) *qef.Tile {
	sel := bits.NewVector(t.N)
	for i := 0; i < t.N; i += 2 {
		sel.Set(i)
	}
	t.Sel = sel
	return t
}

func withRIDs(t *qef.Tile) *qef.Tile {
	for i := 0; i < t.N; i += 40 {
		t.RIDs = append(t.RIDs, uint32(i))
	}
	return t
}

// observedPoolBytes runs op.Open + one Produce on a pooled task context and
// returns the pool high-water mark attributable to the Produce call.
func observedPoolBytes(t *testing.T, mode qef.Mode, op qef.Operator, tile *qef.Tile) int {
	t.Helper()
	ctx := qef.NewContext(mode)
	used := -1
	err := ctx.RunSerial(func(tc *qef.TaskCtx) error {
		if err := op.Open(tc); err != nil {
			return err
		}
		tc.ResetScratch()
		p := tc.Pool()
		base := p.MarkHighWater()
		if err := op.Produce(tc, tile); err != nil {
			return err
		}
		used = p.HighWater() - base
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", mode, err)
	}
	return used
}

func TestDMEMSizeIsUpperBoundOnPoolUse(t *testing.T) {
	richPred := &And{Preds: []Predicate{
		&ConstCmp{Col: 0, Op: plan.LT, Val: 90, Sel: 0.9},
		&Or{Preds: []Predicate{
			&Between{Col: 1, Lo: 5, Hi: 95, Sel: 0.9},
			&Not{P: &ColCmp{A: 0, B: 2, Op: plan.EQ, Sel: 0.1}},
		}},
		&ExprCmp{
			E:   &BinExpr{Op: plan.Mul, L: &ColRef{Idx: 1}, R: &ConstExpr{Val: 3}},
			Op:  plan.GT,
			Val: 10,
			Sel: 0.8,
		},
	}}
	cases := []struct {
		name string
		op   func() qef.Operator
		tile func() *qef.Tile
	}{
		{"filter/dense", func() qef.Operator {
			return &FilterOp{Preds: []Predicate{richPred}, Next: &CountSink{}}
		}, func() *qef.Tile { return confTile(confTileRows) }},
		{"filter/rids", func() qef.Operator {
			return &FilterOp{Preds: []Predicate{richPred}, Next: &CountSink{}}
		}, func() *qef.Tile { return withRIDs(confTile(confTileRows)) }},
		{"filter/truepred", func() qef.Operator {
			return &FilterOp{Preds: []Predicate{TruePred{}}, Next: &CountSink{}}
		}, func() *qef.Tile { return confTile(confTileRows) }},
		{"materialize/sel", func() qef.Operator {
			return &MaterializeOp{RowBytes: 4 + 8 + 4, Next: &CountSink{}}
		}, func() *qef.Tile { return withSel(confTile(confTileRows)) }},
		{"materialize/rids", func() qef.Operator {
			return &MaterializeOp{RowBytes: 4 + 8 + 4, Next: &CountSink{}}
		}, func() *qef.Tile { return withRIDs(confTile(confTileRows)) }},
		{"project", func() qef.Operator {
			return &ProjectOp{
				Exprs: []Expr{
					&BinExpr{Op: plan.Add,
						L: &BinExpr{Op: plan.Mul, L: &ColRef{Idx: 0}, R: &ColRef{Idx: 1}},
						R: &ConstExpr{Val: 7}},
					&CaseExpr{
						Cond: &ConstCmp{Col: 2, Op: plan.GT, Val: 50, Sel: 0.5},
						Then: &ColRef{Idx: 0},
						Else: &ConstExpr{Val: 0},
					},
				},
				Keep: []int{2},
				Next: &CountSink{},
			}
		}, func() *qef.Tile { return confTile(confTileRows) }},
		{"scalaragg/rids", func() qef.Operator {
			return &ScalarAggOp{
				Specs: []AggSpec{
					{Kind: AggSum, Expr: &BinExpr{Op: plan.Mul, L: &ColRef{Idx: 0}, R: &ColRef{Idx: 1}}},
					{Kind: AggMax, Expr: &ColRef{Idx: 2}},
					{Kind: AggCountStar},
				},
				Merger: NewGroupMerger(0, nil),
			}
		}, func() *qef.Tile { return withRIDs(confTile(confTileRows)) }},
		{"groupby/dense", func() qef.Operator {
			return &GroupByOp{
				GroupCols: []int{0, 2},
				Specs: []AggSpec{
					{Kind: AggSum, Expr: &ColRef{Idx: 1}},
					{Kind: AggCountStar},
				},
				MaxGroups: 512,
				Merger:    NewGroupMerger(2, nil),
			}
		}, func() *qef.Tile { return confTile(confTileRows) }},
		{"groupby/sel", func() qef.Operator {
			return &GroupByOp{
				GroupCols: []int{0},
				Specs:     []AggSpec{{Kind: AggMin, Expr: &BinExpr{Op: plan.Sub, L: &ColRef{Idx: 1}, R: &ConstExpr{Val: 1}}}},
				MaxGroups: 512,
				Merger:    NewGroupMerger(1, nil),
			}
		}, func() *qef.Tile { return withSel(confTile(confTileRows)) }},
		{"collect/dense", func() qef.Operator {
			return NewCollectSink([]Col{{Name: "a"}, {Name: "b"}, {Name: "c"}})
		}, func() *qef.Tile { return confTile(confTileRows) }},
		{"collect/sel", func() qef.Operator {
			return NewCollectSink([]Col{{Name: "a"}, {Name: "b"}, {Name: "c"}})
		}, func() *qef.Tile { return withSel(confTile(confTileRows)) }},
	}
	for _, mode := range []qef.Mode{qef.ModeX86, qef.ModeDPU} {
		for _, c := range cases {
			op := c.op()
			declared := op.DMEMSize(confTileRows)
			used := observedPoolBytes(t, mode, op, c.tile())
			if used > declared {
				t.Errorf("%s/%s: observed pool use %d bytes exceeds declared DMEMSize %d",
					mode, c.name, used, declared)
			}
		}
	}
}

// --- Steady-state allocation guards ---------------------------------------

// allocChain is the canonical filter→materialize→project tile loop the
// ISSUE's regression guard targets.
func allocChain(sink qef.Operator) func() qef.Operator {
	return func() qef.Operator {
		return &FilterOp{
			Preds: []Predicate{&ConstCmp{Col: 0, Op: plan.LT, Val: 500, Sel: 0.5}},
			Next: &MaterializeOp{
				RowBytes: 3 * 4,
				Next: &ProjectOp{
					Exprs: []Expr{&BinExpr{Op: plan.Mul, L: &ColRef{Idx: 1}, R: &ConstExpr{Val: 3}}},
					Keep:  []int{0},
					Next:  sink,
				},
			},
		}
	}
}

func allocRelation(rows int) *Relation {
	cols, data := make([]Col, 3), make([]coltypes.Data, 3)
	for c := range cols {
		d := coltypes.New(coltypes.W4, rows)
		for i := 0; i < rows; i++ {
			d.Set(i, int64((i*2654435761+c)%1000))
		}
		cols[c], data[c] = Col{Name: string(rune('a' + c)), Type: coltypes.Int()}, d
	}
	return MustRelation(cols, data)
}

// testTileLoopAllocs asserts the steady-state allocation slope of the tile
// loop: the allocations a scan of 2N rows makes beyond a scan of N rows,
// per extra tile. Differencing cancels whatever a scan costs independent of
// its length, so the budget is the tile loop's own and needs no allowance.
func testTileLoopAllocs(t *testing.T, mode qef.Mode, perTileBudget float64) {
	const rows = 1 << 15
	const tileRows = 256
	ctx := qef.NewContext(mode)
	allocsPerScan := func(rows int) float64 {
		rel := allocRelation(rows)
		scan := func() {
			sink := &CountSink{}
			if err := RelationScan(ctx, rel, tileRows, allocChain(sink)); err != nil {
				t.Fatal(err)
			}
			if sink.Rows() == 0 {
				t.Fatal("no rows survived the filter")
			}
		}
		scan() // warm-up: pools grow to steady-state size here
		return testing.AllocsPerRun(5, scan)
	}
	long, short := allocsPerScan(2*rows), allocsPerScan(rows)
	if perTile := (long - short) / (rows / tileRows); perTile > perTileBudget {
		t.Errorf("%s tile loop: %.0f allocs/scan at %d rows, %.0f at %d ≈ %.2f allocs/tile (budget %.2f) — the hot path regressed",
			mode, long, 2*rows, short, rows, perTile, perTileBudget)
	}
}

func TestTileLoopAllocsX86(t *testing.T) { testTileLoopAllocs(t, qef.ModeX86, 1) }
func TestTileLoopAllocsDPU(t *testing.T) { testTileLoopAllocs(t, qef.ModeDPU, 1) }
