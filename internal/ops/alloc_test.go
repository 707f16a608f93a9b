package ops

import (
	"testing"

	"rapid/internal/bits"
	"rapid/internal/coltypes"
	"rapid/internal/plan"
	"rapid/internal/qef"
	"rapid/internal/storage"
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

// observedPoolBytes runs op.Open + one Produce on a pooled task context, as
// a unit whose chunk has the zone maps zone, and returns the pool high-water
// mark attributable to the Produce call and the unit's end (EndUnit).
func observedPoolBytes(t *testing.T, mode qef.Mode, op qef.Operator, tile *qef.Tile, zone func(int) (storage.Zone, bool)) int {
	t.Helper()
	ctx := qef.NewContext(mode)
	used := -1
	err := ctx.RunSerial(func(tc *qef.TaskCtx) error {
		if err := op.Open(tc); err != nil {
			return err
		}
		tc.ResetScratch()
		tc.Zone = zone
		p := tc.Pool
		base := p.MarkHighWater()
		if err := op.Produce(tc, tile); err != nil {
			return err
		}
		if err := tc.EndUnit(); err != nil {
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
	var fb ProgramBuilder
	richPred := &And{Preds: []Predicate{
		&ExprCmp{
			Node: fb.ArithConst(plan.Mul, fb.Col(1), 3),
			Op:   plan.GT,
			Val:  10,
		},
		&ConstCmp{Col: 0, Op: plan.LT, Val: 90},
		&Or{Preds: []Predicate{
			&Between{Col: 1, Lo: 5, Hi: 95},
			&Not{P: &ColCmp{A: 0, B: 2, Op: plan.EQ}},
		}},
	}}
	richProg := fb.Program()
	// Shared subexpressions: a*(1-b) feeds a sum, a product and a CASE arm,
	// and the CASE's condition compares a node of the same program.
	var sb ProgramBuilder
	disc := sb.Arith(plan.Mul, sb.Col(0), sb.Arith(plan.Sub, sb.Const(100), sb.Col(1)))
	charge := sb.Arith(plan.Mul, disc, sb.ArithConst(plan.Add, sb.Col(2), 100))
	caseN := sb.Case(&ExprCmp{Node: disc, Op: plan.GT, Val: 500}, disc, sb.Col(1))
	sharedProg := sb.Program()
	// A join filter over keys 0, 3, 6, ... of the tile's first column.
	jb, err := NewJoinBuild(intRel([]string{"k"}, seq(40, func(i int) int64 { return int64(3 * i) })),
		JoinSpec{Type: plan.InnerJoin, BuildKeys: []int{0}, ProbeKeys: []int{0}, Scheme: PartScheme{Rounds: []int{8}}})
	if err != nil {
		t.Fatal(err)
	}
	jf, err := jb.Filter(qef.NewContext(qef.ModeDPU), []int{0}, 12)
	if err != nil {
		t.Fatal(err)
	}
	// A second join filter, over the tile's third column, resident in the
	// same pipeline: each filter is its own FilterOp, as qcomp chains them.
	jb2, err := NewJoinBuild(intRel([]string{"k"}, seq(30, func(i int) int64 { return int64(2 * i) })),
		JoinSpec{Type: plan.InnerJoin, BuildKeys: []int{0}, ProbeKeys: []int{0}, Scheme: PartScheme{Rounds: []int{32}}})
	if err != nil {
		t.Fatal(err)
	}
	jf2, err := jb2.Filter(qef.NewContext(qef.ModeDPU), []int{2}, 11)
	if err != nil {
		t.Fatal(err)
	}
	// A pre-aggregation over the tile's first and third columns, whose zones
	// (confTile's values are below 100) give 100 slots each.
	preAgg := func(keys int, slots int) func() qef.Operator {
		return func() qef.Operator {
			op := &PreAggOp{
				Keys:   []PreAggKey{{Col: 0, Scan: 0, Width: coltypes.W1}, {Col: 2, Scan: 2, Width: coltypes.W2}}[:keys],
				States: []PreAggState{{Kind: AggSum, Col: 1}, {Kind: AggMin, Col: 1}, {Kind: AggCountStar}},
				Slots:  slots,
				Next:   &CountSink{},
			}
			return op
		}
	}
	// Each runs as a unit whose chunk has these zone maps.
	zone := zonesOf(map[int]storage.Zone{0: {Min: 0, Max: 99}, 2: {Min: 0, Max: 99}})
	zoned := map[string]bool{}
	for _, name := range []string{"preagg/dense", "preagg/sel", "preagg/rids", "preagg/2keys", "preagg/passthrough"} {
		zoned[name] = true
	}
	cases := []struct {
		name string
		op   func() qef.Operator
		tile func() *qef.Tile
	}{
		{"preagg/dense", preAgg(1, 100), func() *qef.Tile { return confTile(confTileRows) }},
		{"preagg/sel", preAgg(1, 100), func() *qef.Tile { return withSel(confTile(confTileRows)) }},
		{"preagg/rids", preAgg(1, 100), func() *qef.Tile { return withRIDs(confTile(confTileRows)) }},
		{"preagg/2keys", preAgg(2, 10000), func() *qef.Tile { return withSel(confTile(confTileRows)) }},
		{"preagg/passthrough", preAgg(1, 99), func() *qef.Tile { return withSel(confTile(confTileRows)) }},
		{"preagg/nozone", preAgg(2, 10000), func() *qef.Tile { return confTile(confTileRows) }},
		{"filter/joinfilter", func() qef.Operator {
			return &FilterOp{Pred: jf, Next: &CountSink{}}
		}, func() *qef.Tile { return confTile(confTileRows) }},
		{"filter/joinfilter/rids", func() qef.Operator {
			return &FilterOp{Pred: &And{Preds: []Predicate{&ConstCmp{Col: 2, Op: plan.LT, Val: 90}, jf}}, Next: &CountSink{}}
		}, func() *qef.Tile { return withRIDs(confTile(confTileRows)) }},
		{"filter/twofilters", func() qef.Operator {
			second := &FilterOp{Pred: jf2, Next: &CountSink{}}
			return chainDMEM{Operator: &FilterOp{Pred: jf, Next: second}, rest: []qef.Operator{second}}
		}, func() *qef.Tile { return withSel(confTile(confTileRows)) }},
		{"filter/dense", func() qef.Operator {
			return &FilterOp{Pred: richPred, Prog: richProg, Next: &CountSink{}}
		}, func() *qef.Tile { return confTile(confTileRows) }},
		{"filter/rids", func() qef.Operator {
			return &FilterOp{Pred: richPred, Prog: richProg, Next: &CountSink{}}
		}, func() *qef.Tile { return withRIDs(confTile(confTileRows)) }},
		{"filter/truepred", func() qef.Operator {
			return &FilterOp{Pred: TruePred{}, Next: &CountSink{}}
		}, func() *qef.Tile { return confTile(confTileRows) }},
		{"materialize/sel", func() qef.Operator {
			return &MaterializeOp{RowBytes: 4 + 8 + 4, Next: &CountSink{}}
		}, func() *qef.Tile { return withSel(confTile(confTileRows)) }},
		{"materialize/rids", func() qef.Operator {
			return &MaterializeOp{RowBytes: 4 + 8 + 4, Next: &CountSink{}}
		}, func() *qef.Tile { return withRIDs(confTile(confTileRows)) }},
		{"project", func() qef.Operator {
			var b ProgramBuilder
			sum := b.ArithConst(plan.Add, b.Arith(plan.Mul, b.Col(0), b.Col(1)), 7)
			caseN := b.Case(&ConstCmp{Col: 2, Op: plan.GT, Val: 50}, b.Col(0), b.Const(0))
			return &ProjectOp{
				Cols: []ProjCol{{Keep: -1, Node: sum}, {Keep: 2}, {Keep: -1, Node: caseN}},
				Prog: b.Program(),
				Next: &CountSink{},
			}
		}, func() *qef.Tile { return confTile(confTileRows) }},
		{"project/sharedexprs", func() qef.Operator {
			return &ProjectOp{
				Cols: []ProjCol{{Keep: -1, Node: disc}, {Keep: -1, Node: charge}, {Keep: 1}, {Keep: -1, Node: caseN}, {Keep: -1, Node: disc}},
				Prog: sharedProg,
				Next: &CountSink{},
			}
		}, func() *qef.Tile { return confTile(confTileRows) }},
		{"scalaragg/rids", func() qef.Operator {
			var b ProgramBuilder
			return &ScalarAggOp{
				Specs: []AggSpec{
					{Kind: AggSum, Arg: b.Arith(plan.Mul, b.Col(0), b.Col(1))},
					{Kind: AggMax, Arg: b.Col(2)},
					{Kind: AggCountStar},
				},
				Prog:   b.Program(),
				Merger: NewGroupMerger(0, nil),
			}
		}, func() *qef.Tile { return withRIDs(confTile(confTileRows)) }},
		{"groupby/dense", func() qef.Operator {
			var b ProgramBuilder
			return &GroupByOp{
				GroupCols: []int{0, 2},
				Specs: []AggSpec{
					{Kind: AggSum, Arg: b.Col(1)},
					{Kind: AggCountStar},
				},
				Prog:      b.Program(),
				MaxGroups: 512,
				Merger:    NewGroupMerger(2, nil),
			}
		}, func() *qef.Tile { return confTile(confTileRows) }},
		{"groupby/sel", func() qef.Operator {
			var b ProgramBuilder
			return &GroupByOp{
				GroupCols: []int{0},
				Specs:     []AggSpec{{Kind: AggMin, Arg: b.ArithConst(plan.Sub, b.Col(1), 1)}},
				Prog:      b.Program(),
				MaxGroups: 512,
				Merger:    NewGroupMerger(1, nil),
			}
		}, func() *qef.Tile { return withSel(confTile(confTileRows)) }},
		{"groupby/sharedexprs", func() qef.Operator {
			return &GroupByOp{
				GroupCols: []int{0},
				Specs: []AggSpec{
					{Kind: AggSum, Arg: disc},
					{Kind: AggSum, Arg: charge},
					{Kind: AggSum, Arg: caseN},
					{Kind: AggMax, Arg: disc},
					{Kind: AggCountStar},
				},
				Prog:      sharedProg,
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
			var z func(int) (storage.Zone, bool)
			if zoned[c.name] {
				z = zone
			}
			used := observedPoolBytes(t, mode, op, c.tile(), z)
			if used > declared {
				t.Errorf("%s/%s: observed pool use %d bytes exceeds declared DMEMSize %d",
					mode, c.name, used, declared)
			}
		}
	}
}

// chainDMEM is an operator chain declared as its head plus rest, the
// operators after the head that claim DMEM of their own.
type chainDMEM struct {
	qef.Operator
	rest []qef.Operator
}

func (c chainDMEM) DMEMSize(rows int) int {
	n := c.Operator.DMEMSize(rows)
	for _, op := range c.rest {
		n += op.DMEMSize(rows)
	}
	return n
}

// --- Steady-state allocation guards ---------------------------------------

// allocChain is the canonical filter→materialize→project tile loop the
// ISSUE's regression guard targets.
func allocChain(sink qef.Operator) func() qef.Operator {
	var b ProgramBuilder
	tripled := b.ArithConst(plan.Mul, b.Col(1), 3)
	prog := b.Program()
	return func() qef.Operator {
		return &FilterOp{
			Pred: &ConstCmp{Col: 0, Op: plan.LT, Val: 500},
			Next: &MaterializeOp{
				RowBytes: 3 * 4,
				Next: &ProjectOp{
					Cols: []ProjCol{{Keep: 0}, {Keep: -1, Node: tripled}},
					Prog: prog,
					Next: sink,
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

// TestTileLoopAllocsFixedDPU bounds what one warm scan costs independent of
// its length: the task contexts, tile structs and operator chains of every
// virtual core. ModeDPU has 32 virtual cores at any GOMAXPROCS, so the count
// is exact; 620 leaves a small margin over the 593 measured.
func TestTileLoopAllocsFixedDPU(t *testing.T) {
	const budget = 620
	ctx := qef.NewContext(qef.ModeDPU)
	rel := allocRelation(1 << 15)
	scan := func() {
		sink := &CountSink{}
		if err := RelationScan(ctx, rel, 256, allocChain(sink)); err != nil {
			t.Fatal(err)
		}
	}
	scan() // warm-up: pools and task contexts reach steady state
	if got := testing.AllocsPerRun(5, scan); got > budget {
		t.Errorf("one warm ModeDPU scan: %.0f allocs (budget %d) — the fixed per-scan cost regressed", got, budget)
	}
}
