package ops

import (
	"testing"

	"rapid/internal/bits"
	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/plan"
	"rapid/internal/primitives"
	"rapid/internal/qef"
)

// TestProgramBillsEachDistinctNodeOncePerTile: the aggregates SUM(a*(1-b)),
// SUM(a*(1-b)*(1+c)), AVG(b) (lowered to SUM(b) and COUNT(*)) and
// SUM(CASE WHEN c > 5 THEN a*(1-b) ELSE b END) share their subtrees in one
// program. Per tile the operator bills its own work plus each distinct
// node's kernel exactly once — three widens, one constant fill, a subtract,
// two multiplies, an add-constant, the CASE condition and its blend — however
// many consumers read a node.
func TestProgramBillsEachDistinctNodeOncePerTile(t *testing.T) {
	const rows, tiles = 1000, 3
	a := coltypes.FromInt64s(coltypes.W4, seq(rows, func(i int) int64 { return int64(i*7) - 3000 }))
	b := coltypes.FromInt64s(coltypes.W2, seq(rows, func(i int) int64 { return int64(i % 11) }))
	c := coltypes.FromInt64s(coltypes.W1, seq(rows, func(i int) int64 { return int64(i%13) - 4 }))

	var pb ProgramBuilder
	colA, colB, colC := pb.Col(0), pb.Col(1), pb.Col(2)
	disc := pb.Arith(plan.Mul, colA, pb.Arith(plan.Sub, pb.Const(100), colB))
	charge := pb.Arith(plan.Mul, disc, pb.ArithConst(plan.Add, colC, 100))
	caseN := pb.Case(&ConstCmp{Col: 2, Op: plan.GT, Val: 5}, disc, colB)
	if again := pb.Arith(plan.Mul, pb.Col(0), pb.Arith(plan.Sub, pb.Const(100), pb.Col(1))); again != disc {
		t.Fatalf("a*(1-b) added again is node %d, not node %d", again, disc)
	}
	prog := pb.Program()
	if len(prog.Nodes) != 9 {
		t.Fatalf("program has %d nodes, want 9 distinct ones", len(prog.Nodes))
	}
	specs := []AggSpec{
		{Kind: AggSum, Arg: disc},
		{Kind: AggSum, Arg: charge},
		{Kind: AggSum, Arg: colB},
		{Kind: AggCountStar},
		{Kind: AggSum, Arg: caseN},
	}

	// The reference bill: each distinct node's kernel once, and the
	// operator's tile overhead and one fold per spec that reads a node, run
	// on a core of their own.
	ref := dpu.MustNew(dpu.DefaultConfig()).Core(0)
	vec := func() []int64 { return make([]int64, rows) }
	wa := primitives.WidenToI64(ref, a, nil)
	wb := primitives.WidenToI64(ref, b, nil)
	wc := primitives.WidenToI64(ref, c, nil)
	k := vec()
	for i := range k {
		k[i] = 100
	}
	ref.Charge(dpu.Cycles(rows)) // the constant's fill
	oneMinusB, d, onePlusC, ch, cs := vec(), vec(), vec(), vec(), vec()
	primitives.SubCol(ref, k, wb, oneMinusB)
	primitives.MulCol(ref, wa, oneMinusB, d)
	primitives.AddConst(ref, wc, 100, onePlusC)
	primitives.MulCol(ref, d, onePlusC, ch)
	cond := bits.NewVector(rows)
	primitives.FilterConstBVMasked(ref, c, plan.GT, 5, nil, cond)
	for i := range cs {
		cs[i] = wb[i]
		if cond.Test(i) {
			cs[i] = d[i]
		}
	}
	ref.Charge(dpu.Cycles(rows)) // the CASE blend
	primitives.ChargeTileOverhead(ref)
	want := make([]int64, 4)
	for i, v := range [][]int64{d, ch, wb, cs} {
		for _, x := range v {
			want[i] += x
		}
		primitives.ChargeAggregate(ref, len(v))
	}
	perTile := ref.Cycles()

	ctx := qef.NewContext(qef.ModeDPU)
	merger := NewGroupMerger(0, specs)
	err := ctx.RunSerial(func(tc *qef.TaskCtx) error {
		op := &ScalarAggOp{Specs: specs, Prog: prog, Merger: merger}
		if err := op.Open(tc); err != nil {
			return err
		}
		before := tc.Core.Cycles()
		for range tiles {
			tc.ResetScratch()
			if err := op.Produce(tc, &qef.Tile{Cols: []coltypes.Data{a, b, c}, N: rows}); err != nil {
				return err
			}
		}
		if got := tc.Core.Cycles() - before; got != tiles*perTile {
			t.Errorf("%d tiles billed %d cycles, want %d: %d per tile", tiles, got, tiles*perTile, perTile)
		}
		return op.Close(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	res := merger.Relation(nil, nil)
	for i, col := range []int{0, 1, 2, 4} {
		if got := res.Get(0, col); got != tiles*want[i] {
			t.Errorf("spec %d: sum %d, want %d", col, got, tiles*want[i])
		}
	}
	if got := res.Get(0, 3); got != tiles*rows {
		t.Errorf("COUNT(*) = %d, want %d", got, tiles*rows)
	}
}
