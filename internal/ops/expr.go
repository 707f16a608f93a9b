package ops

import (
	"rapid/internal/dpu"
	"rapid/internal/plan"
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
	return primitives.WidenToI64(tc.Core, t.Cols[e.Idx], tc.Pool.I64(t.N))
}

// ConstExpr is a 64-bit constant (already scaled by the compiler).
type ConstExpr struct {
	Val int64
}

func (e *ConstExpr) Eval(tc *qef.TaskCtx, t *qef.Tile) []int64 {
	out := tc.Pool.I64(t.N)
	for i := range out {
		out[i] = e.Val
	}
	charge1(tc, t.N)
	return out
}

// BinExpr applies an arithmetic operator element-wise.
type BinExpr struct {
	Op   plan.ArithOp
	L, R Expr
}

func (e *BinExpr) Eval(tc *qef.TaskCtx, t *qef.Tile) []int64 {
	l := e.L.Eval(tc, t)
	// Constant fast paths use the *Const primitives (cheaper than
	// materializing a constant vector). A zero divisor takes the vector
	// path, whose x/0 is 0 like the row engine's.
	if c, ok := e.R.(*ConstExpr); ok && (e.Op != plan.Div || c.Val != 0) {
		out := tc.Pool.I64(len(l))
		switch e.Op {
		case plan.Add:
			primitives.AddConst(tc.Core, l, c.Val, out)
		case plan.Sub:
			primitives.AddConst(tc.Core, l, -c.Val, out)
		case plan.Mul:
			primitives.MulConst(tc.Core, l, c.Val, out)
		case plan.Div:
			primitives.DivConst(tc.Core, l, c.Val, out)
		}
		return out
	}
	r := e.R.Eval(tc, t)
	out := tc.Pool.I64(len(l))
	switch e.Op {
	case plan.Add:
		primitives.AddCol(tc.Core, l, r, out)
	case plan.Sub:
		primitives.SubCol(tc.Core, l, r, out)
	case plan.Mul:
		primitives.MulCol(tc.Core, l, r, out)
	case plan.Div:
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
	out := tc.Pool.I64(t.N)
	for wi, w := range cond.Words() {
		lo := wi * 64
		for i := lo; i < min(lo+64, len(out)); i++ {
			m := -int64(w & 1) // all ones where the condition holds
			out[i] = b[i] ^ (a[i]^b[i])&m
			w >>= 1
		}
	}
	charge1(tc, t.N)
	return out
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
	if tc.Core != nil {
		tc.Core.Charge(dpu.Cycles(n))
	}
}

func charge4(tc *qef.TaskCtx, n int) {
	if tc.Core != nil {
		tc.Core.Charge(dpu.Cycles(4 * n))
	}
}
