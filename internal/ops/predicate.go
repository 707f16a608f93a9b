package ops

import (
	"rapid/internal/bits"
	"rapid/internal/coltypes"
	"rapid/internal/plan"
	"rapid/internal/primitives"
	"rapid/internal/qef"
)

// Predicate is a vectorized boolean condition over a tile. Eval computes the
// qualifying rows among those set in inBV (nil = all rows) into a
// tile-lifetime bit-vector (pool scratch — valid until the next
// ResetScratch); s is the tile's evaluation of the program of the operator
// the predicate belongs to, which its ExprCmps read. Selectivity estimates
// stay with the compiler, which orders every conjunction before handing it
// over (§5.4).
type Predicate interface {
	Eval(tc *qef.TaskCtx, t *qef.Tile, s Slots, inBV *bits.Vector) (*bits.Vector, int)
}

// predScratchBytes returns an upper bound on the tile-lifetime pool bytes
// one Eval of p takes for a tile of tileRows rows: one result bit-vector per
// node, plus the vector a join filter keeps resident in DMEM. A computed
// comparison's operand is its program's scratch (Program.ScratchBytes). Operator DMEMSize
// declarations are built from this so they stay upper bounds on observed
// pool usage.
func predScratchBytes(p Predicate, tileRows int) int {
	bv := bits.VectorSizeBytes(tileRows)
	switch p := p.(type) {
	case *ConstCmp, *Between, *InSet, *ColCmp, *ExprCmp, TruePred, *TruePred:
		return bv
	case *JoinFilter:
		// The result, and the vector resident beside the tile.
		return bv + p.ResidentBytes()
	case *And:
		total := 0
		for _, sub := range p.Preds {
			total += predScratchBytes(sub, tileRows)
		}
		return total
	case *Or:
		total := bv
		for _, sub := range p.Preds {
			total += predScratchBytes(sub, tileRows)
		}
		return total
	case *Not:
		return bv + predScratchBytes(p.P, tileRows)
	default:
		// Unknown predicate node: assume two bit-vectors.
		return 2 * bv
	}
}

// evalPredDense evaluates p over all rows of the tile.
func evalPredDense(tc *qef.TaskCtx, p Predicate, t *qef.Tile, s Slots) *bits.Vector {
	bv, _ := p.Eval(tc, t, s, nil)
	return bv
}

// ConstCmp compares a column against a constant.
type ConstCmp struct {
	Col int
	Op  plan.CmpOp
	Val int64
}

func (p *ConstCmp) Eval(tc *qef.TaskCtx, t *qef.Tile, _ Slots, inBV *bits.Vector) (*bits.Vector, int) {
	out := tc.Pool.BV(t.N)
	hits := primitives.FilterConstBVMasked(tc.Core, t.Cols[p.Col], p.Op, p.Val, inBV, out)
	return out, hits
}

// Between tests lo <= col <= hi.
type Between struct {
	Col    int
	Lo, Hi int64
}

func (p *Between) Eval(tc *qef.TaskCtx, t *qef.Tile, _ Slots, inBV *bits.Vector) (*bits.Vector, int) {
	out := tc.Pool.BV(t.N)
	hits := primitives.FilterBetweenBV(tc.Core, t.Cols[p.Col], p.Lo, p.Hi, inBV, out)
	return out, hits
}

// InSet tests dictionary-code membership (string equality, IN lists, LIKE
// prefix and string ranges all compile to this).
type InSet struct {
	Col int
	Set *bits.Vector
}

func (p *InSet) Eval(tc *qef.TaskCtx, t *qef.Tile, _ Slots, inBV *bits.Vector) (*bits.Vector, int) {
	out := tc.Pool.BV(t.N)
	hits := primitives.FilterInSetBV(tc.Core, t.Cols[p.Col], p.Set, inBV, out)
	return out, hits
}

// ColCmp compares two columns of the tile.
type ColCmp struct {
	A, B int
	Op   plan.CmpOp
}

func (p *ColCmp) Eval(tc *qef.TaskCtx, t *qef.Tile, _ Slots, inBV *bits.Vector) (*bits.Vector, int) {
	out := tc.Pool.BV(t.N)
	hits := primitives.FilterColColBV(tc.Core, t.Cols[p.A], t.Cols[p.B], p.Op, inBV, out)
	return out, hits
}

// ExprCmp compares a computed expression — node Node of its operator's
// program — against a constant (e.g. l_extendedprice * l_discount > c).
// More expensive than ConstCmp; the compiler orders it late.
type ExprCmp struct {
	Node int
	Op   plan.CmpOp
	Val  int64
}

func (p *ExprCmp) Eval(tc *qef.TaskCtx, t *qef.Tile, s Slots, inBV *bits.Vector) (*bits.Vector, int) {
	d := coltypes.Of(s.Get(tc, t, p.Node))
	out := tc.Pool.BV(t.N)
	hits := primitives.FilterConstBVMasked(tc.Core, d, p.Op, p.Val, inBV, out)
	return out, hits
}

// And is a conjunction evaluated in list order, each member seeing only the
// rows its predecessors passed; the compiler lists the members
// most-selective-first (the §5.4 predicate reordering).
type And struct {
	Preds []Predicate
}

func (p *And) Eval(tc *qef.TaskCtx, t *qef.Tile, s Slots, inBV *bits.Vector) (*bits.Vector, int) {
	cur := inBV
	var out *bits.Vector
	hits := 0
	for _, sub := range p.Preds {
		out, hits = sub.Eval(tc, t, s, cur)
		if hits == 0 {
			return out, 0
		}
		cur = out
	}
	return out, hits
}

// Or is a disjunction: the union of the branch results.
type Or struct {
	Preds []Predicate
}

func (p *Or) Eval(tc *qef.TaskCtx, t *qef.Tile, s Slots, inBV *bits.Vector) (*bits.Vector, int) {
	acc := tc.Pool.BV(t.N)
	for _, sub := range p.Preds {
		bv, _ := sub.Eval(tc, t, s, inBV)
		acc.Or(acc, bv)
	}
	return acc, acc.Count()
}

// Not negates a predicate over the candidate rows.
type Not struct {
	P Predicate
}

func (p *Not) Eval(tc *qef.TaskCtx, t *qef.Tile, s Slots, inBV *bits.Vector) (*bits.Vector, int) {
	bv, _ := p.P.Eval(tc, t, s, inBV)
	out := tc.Pool.BV(t.N)
	if inBV == nil {
		out.Not(bv)
	} else {
		out.AndNot(inBV, bv)
	}
	return out, out.Count()
}

// TruePred matches every candidate row (used by degenerate rewrites).
type TruePred struct{}

func (TruePred) Eval(tc *qef.TaskCtx, t *qef.Tile, _ Slots, inBV *bits.Vector) (*bits.Vector, int) {
	out := tc.Pool.BV(t.N)
	if inBV == nil {
		out.SetAll()
		return out, t.N
	}
	out.CopyFrom(inBV)
	return out, out.Count()
}
