package ops

import (
	"rapid/internal/bits"
	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/primitives"
	"rapid/internal/qef"
)

// Expr is a vectorized arithmetic expression over a tile's columns,
// evaluated into a 64-bit accumulator vector. The compiler has already done
// all type work (DSB scale alignment, width selection), so evaluation is
// pure integer arithmetic composed of widen/arith primitives.
type Expr interface {
	// Eval computes the expression densely for all t.N rows.
	Eval(tc *qef.TaskCtx, t *qef.Tile) []int64
}

// ColRef reads tile column Idx, widening to 64 bits.
type ColRef struct {
	Idx int
}

func (e *ColRef) Eval(tc *qef.TaskCtx, t *qef.Tile) []int64 {
	return primitives.WidenToI64(core(tc), t.Cols[e.Idx], scratch(tc, t.N))
}

// ConstExpr is a 64-bit constant (already scaled by the compiler).
type ConstExpr struct {
	Val int64
}

func (e *ConstExpr) Eval(tc *qef.TaskCtx, t *qef.Tile) []int64 {
	out := scratch(tc, t.N)
	for i := range out {
		out[i] = e.Val
	}
	charge1(tc, t.N)
	return out
}

// ArithOp is a binary arithmetic operator.
type ArithOp int

const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
)

// BinExpr applies an arithmetic operator element-wise.
type BinExpr struct {
	Op   ArithOp
	L, R Expr
}

func (e *BinExpr) Eval(tc *qef.TaskCtx, t *qef.Tile) []int64 {
	l := e.L.Eval(tc, t)
	// Constant fast paths use the *Const primitives (cheaper than
	// materializing a constant vector).
	if c, ok := e.R.(*ConstExpr); ok {
		out := scratch(tc, len(l))
		switch e.Op {
		case OpAdd:
			primitives.AddConst(core(tc), l, c.Val, out)
		case OpSub:
			primitives.AddConst(core(tc), l, -c.Val, out)
		case OpMul:
			primitives.MulConst(core(tc), l, c.Val, out)
		case OpDiv:
			primitives.DivConst(core(tc), l, c.Val, out)
		}
		return out
	}
	r := e.R.Eval(tc, t)
	out := scratch(tc, len(l))
	switch e.Op {
	case OpAdd:
		primitives.AddCol(core(tc), l, r, out)
	case OpSub:
		primitives.SubCol(core(tc), l, r, out)
	case OpMul:
		primitives.MulCol(core(tc), l, r, out)
	case OpDiv:
		for i := range l {
			if r[i] == 0 {
				out[i] = 0
			} else {
				out[i] = l[i] / r[i]
			}
		}
		charge4(tc, len(l))
	}
	return out
}

// CaseExpr is CASE WHEN cond THEN a ELSE b END, evaluated branch-free: both
// arms are computed and blended by the condition bit-vector (the DPU way —
// no data-dependent branches in primitives).
type CaseExpr struct {
	Cond Predicate
	Then Expr
	Else Expr
}

func (e *CaseExpr) Eval(tc *qef.TaskCtx, t *qef.Tile) []int64 {
	cond := evalPredDense(tc, e.Cond, t)
	a := e.Then.Eval(tc, t)
	b := e.Else.Eval(tc, t)
	out := scratch(tc, t.N)
	for i := range out {
		if cond.Test(i) {
			out[i] = a[i]
		} else {
			out[i] = b[i]
		}
	}
	charge1(tc, t.N)
	return out
}

func core(tc *qef.TaskCtx) *dpu.Core {
	if tc == nil {
		return nil
	}
	return tc.Core
}

// scratch returns a tile-lifetime buffer (per-task pool when available).
func scratch(tc *qef.TaskCtx, n int) []int64 {
	if tc == nil {
		return make([]int64, n)
	}
	return tc.I64Scratch(n)
}

// bvScratch returns a cleared tile-lifetime bit-vector.
func bvScratch(tc *qef.TaskCtx, n int) *bits.Vector {
	if tc == nil {
		return bits.NewVector(n)
	}
	return tc.BVScratch(n)
}

// ridScratch returns an empty tile-lifetime RID buffer of capacity n.
func ridScratch(tc *qef.TaskCtx, n int) []uint32 {
	if tc == nil {
		return make([]uint32, 0, n)
	}
	return tc.RIDScratch(n)
}

// u32Scratch returns a zeroed tile-lifetime uint32 buffer of length n.
func u32Scratch(tc *qef.TaskCtx, n int) []uint32 {
	if tc == nil {
		return make([]uint32, n)
	}
	return tc.U32Scratch(n)
}

// colScratch returns a zeroed tile-lifetime column-header slice.
func colScratch(tc *qef.TaskCtx, n int) []coltypes.Data {
	if tc == nil {
		return make([]coltypes.Data, n)
	}
	return tc.ColScratch(n)
}

// rowScratch returns a zeroed tile-lifetime [][]int64 header slice.
func rowScratch(tc *qef.TaskCtx, n int) [][]int64 {
	if tc == nil {
		return make([][]int64, n)
	}
	return tc.RowScratch(n)
}

// dataScratch returns a zeroed tile-lifetime column buffer.
func dataScratch(tc *qef.TaskCtx, w coltypes.Width, n int) coltypes.Data {
	if tc == nil {
		return coltypes.New(w, n)
	}
	return tc.DataScratch(w, n)
}

// tileScratch returns a recycled tile-lifetime Tile over cols.
func tileScratch(tc *qef.TaskCtx, cols []coltypes.Data, n int) *qef.Tile {
	if tc == nil {
		return qef.NewTile(cols, n)
	}
	return tc.TileScratch(cols, n)
}

// exprScratchBytes returns an upper bound on the tile-lifetime pool bytes
// Eval takes for one tile of tileRows rows — every node of the tree holds
// one 8-byte accumulator vector, and CASE additionally evaluates its
// condition. This is what operator DMEMSize declarations charge per
// expression, keeping the declared budgets upper bounds on observed pool
// usage (enforced by the conformance tests).
func exprScratchBytes(e Expr, tileRows int) int {
	switch e := e.(type) {
	case *ColRef, *ConstExpr:
		return 8 * tileRows
	case *BinExpr:
		total := exprScratchBytes(e.L, tileRows) + 8*tileRows
		if _, ok := e.R.(*ConstExpr); !ok {
			total += exprScratchBytes(e.R, tileRows)
		}
		return total
	case *CaseExpr:
		return predScratchBytes(e.Cond, tileRows) +
			exprScratchBytes(e.Then, tileRows) +
			exprScratchBytes(e.Else, tileRows) + 8*tileRows
	default:
		// Unknown expression node: assume two accumulators.
		return 16 * tileRows
	}
}

func charge1(tc *qef.TaskCtx, n int) {
	if c := core(tc); c != nil {
		c.Charge(dpu.Cycles(n))
	}
}

func charge4(tc *qef.TaskCtx, n int) {
	if c := core(tc); c != nil {
		c.Charge(dpu.Cycles(4 * n))
	}
}
