package bench

import (
	"testing"

	"rapid/internal/coltypes"
	"rapid/internal/ops"
	"rapid/internal/plan"
	"rapid/internal/qef"
)

// tileLoopRelation builds a 3-column relation for the canonical
// filter→materialize→project→sink tile loop.
func tileLoopRelation(rows int) *ops.Relation {
	cols := make([]coltypes.Data, 3)
	for c := range cols {
		d := coltypes.New(coltypes.W4, rows)
		for i := 0; i < rows; i++ {
			d.Set(i, int64((i*2654435761+c)%1000))
		}
		cols[c] = d
	}
	return benchRelation(cols)
}

func tileLoopChain(sink qef.Operator) func() qef.Operator {
	var b ops.ProgramBuilder
	tripled := b.ArithConst(plan.Mul, b.Col(1), 3)
	prog := b.Program()
	return func() qef.Operator {
		return &ops.FilterOp{
			Pred: &ops.ConstCmp{Col: 0, Op: plan.LT, Val: 500},
			Next: &ops.MaterializeOp{
				RowBytes: 3 * 4, // three W4 input columns
				Next: &ops.ProjectOp{
					Cols: []ops.ProjCol{{Keep: 0}, {Keep: -1, Node: tripled}},
					Prog: prog,
					Next: sink,
				},
			},
		}
	}
}

func benchTileLoop(b *testing.B, mode qef.Mode) {
	rel := tileLoopRelation(1 << 18)
	ctx := qef.NewContext(mode)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := &ops.CountSink{}
		if err := ops.RelationScan(ctx, rel, 256, tileLoopChain(sink)); err != nil {
			b.Fatal(err)
		}
		if sink.Rows() == 0 {
			b.Fatal("no rows")
		}
	}
	b.SetBytes(int64(rel.Rows()) * 12)
}

// BenchmarkTileLoopX86 measures the steady-state tile loop natively.
func BenchmarkTileLoopX86(b *testing.B) { benchTileLoop(b, qef.ModeX86) }

// BenchmarkTileLoopDPU measures the same loop under full DPU accounting.
func BenchmarkTileLoopDPU(b *testing.B) { benchTileLoop(b, qef.ModeDPU) }
