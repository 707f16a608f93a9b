package ops

import (
	"rapid/internal/dpu"
	"rapid/internal/plan"
	"rapid/internal/primitives"
	"rapid/internal/qef"
)

// ExprOp is the kernel one Program node runs. The compiler has already done
// all type work (DSB scale alignment, width selection, constant folding), so
// evaluation is pure integer arithmetic composed of widen/arith primitives.
type ExprOp uint8

const (
	// ExprCol widens tile column Col to 64 bits.
	ExprCol ExprOp = iota
	// ExprConst fills a vector with Val (already scaled by the compiler).
	ExprConst
	// ExprArith applies Arith to nodes L and R element-wise. Its x/0 is 0,
	// like the row engine's.
	ExprArith
	// ExprArithConst applies Arith to node L and the constant Val through
	// the *Const primitives, cheaper than materializing a constant vector.
	// Val is never a zero divisor: that division takes ExprArith.
	ExprArithConst
	// ExprCase is CASE WHEN Cond THEN L ELSE R END, evaluated branch-free:
	// both arms are computed and blended by the condition bit-vector (the
	// DPU way — no data-dependent branches in primitives).
	ExprCase
)

// ExprNode is one distinct node of a Program. Its operands are earlier
// nodes of the same program.
type ExprNode struct {
	Op    ExprOp
	Arith plan.ArithOp // ExprArith, ExprArithConst
	Col   int          // ExprCol
	Val   int64        // ExprConst, ExprArithConst
	L, R  int          // operand nodes
	Cond  Predicate    // ExprCase; its ExprCmps read nodes of this program
}

// Program is every expression one operator reads — aggregate arguments,
// projection outputs, CASE arms and ExprCmp operands — as one list of
// distinct nodes in dependency order: a node's operands come before it.
// Consumers name a node by its index. The operator starts one evaluation
// per tile (Slots), and each node runs and bills at most once in it, the
// first time a consumer reads it, so a shared subexpression costs once and
// a comparison a conjunction never reaches costs nothing.
type Program struct {
	Nodes []ExprNode
}

// ScratchBytes is an upper bound on the tile-lifetime pool bytes one tile's
// evaluation takes for a tile of tileRows rows: one 8-byte vector per node,
// and the bit-vectors of each CASE condition. Operator DMEMSize declarations
// charge this, keeping the declared budgets upper bounds on observed pool
// usage (enforced by the conformance tests). A nil program takes nothing.
func (p *Program) ScratchBytes(tileRows int) int {
	if p == nil {
		return 0
	}
	total := 0
	for i := range p.Nodes {
		total += 8 * tileRows
		if n := &p.Nodes[i]; n.Op == ExprCase {
			total += predScratchBytes(n.Cond, tileRows)
		}
	}
	return total
}

// Slots starts one tile's evaluation of the program; it holds nothing until
// a consumer reads a node. A nil program has no slots.
func (p *Program) Slots(tc *qef.TaskCtx) Slots {
	if p == nil {
		return Slots{}
	}
	return Slots{prog: p, vals: tc.Pool.RowHeaders(len(p.Nodes))}
}

// Slots is one tile's evaluation of a Program: slot i holds node i's vector
// once a consumer has read it. The vectors are tile-lifetime pool scratch,
// valid until the next ResetScratch. A Slots value is a view; copies share
// the slots.
type Slots struct {
	prog *Program
	vals [][]int64
}

// Get returns node i's vector over the tile's t.N rows, evaluating it — and
// first any operand not yet evaluated — on the first read.
func (s Slots) Get(tc *qef.TaskCtx, t *qef.Tile, i int) []int64 {
	if v := s.vals[i]; v != nil {
		return v
	}
	v := s.eval(tc, t, &s.prog.Nodes[i])
	s.vals[i] = v
	return v
}

func (s Slots) eval(tc *qef.TaskCtx, t *qef.Tile, n *ExprNode) []int64 {
	switch n.Op {
	case ExprCol:
		return primitives.WidenToI64(tc.Core, t.Cols[n.Col], tc.Pool.I64(t.N))
	case ExprConst:
		out := tc.Pool.I64(t.N)
		for i := range out {
			out[i] = n.Val
		}
		charge1(tc, t.N)
		return out
	case ExprArithConst:
		l := s.Get(tc, t, n.L)
		out := tc.Pool.I64(len(l))
		switch n.Arith {
		case plan.Add:
			primitives.AddConst(tc.Core, l, n.Val, out)
		case plan.Sub:
			primitives.AddConst(tc.Core, l, -n.Val, out)
		case plan.Mul:
			primitives.MulConst(tc.Core, l, n.Val, out)
		case plan.Div:
			primitives.DivConst(tc.Core, l, n.Val, out)
		}
		return out
	case ExprArith:
		l, r := s.Get(tc, t, n.L), s.Get(tc, t, n.R)
		out := tc.Pool.I64(len(l))
		switch n.Arith {
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
	default: // ExprCase
		cond := evalPredDense(tc, n.Cond, t, s)
		a, b := s.Get(tc, t, n.L), s.Get(tc, t, n.R)
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
}

// ProgramBuilder assembles a Program, hash-consing its nodes: adding a node
// equal to one already in the program returns the earlier node's index. Two
// CASE nodes are equal when their arms are and their conditions are the same
// Predicate value. The zero value is an empty builder.
type ProgramBuilder struct {
	prog  Program
	index map[ExprNode]int
}

func (b *ProgramBuilder) add(n ExprNode) int {
	if i, ok := b.index[n]; ok {
		return i
	}
	if b.index == nil {
		b.index = make(map[ExprNode]int)
	}
	b.prog.Nodes = append(b.prog.Nodes, n)
	b.index[n] = len(b.prog.Nodes) - 1
	return len(b.prog.Nodes) - 1
}

// Col adds tile column col, widened to 64 bits.
func (b *ProgramBuilder) Col(col int) int { return b.add(ExprNode{Op: ExprCol, Col: col}) }

// Const adds the constant v.
func (b *ProgramBuilder) Const(v int64) int { return b.add(ExprNode{Op: ExprConst, Val: v}) }

// Arith adds nodes l op r.
func (b *ProgramBuilder) Arith(op plan.ArithOp, l, r int) int {
	return b.add(ExprNode{Op: ExprArith, Arith: op, L: l, R: r})
}

// ArithConst adds node l op v. A zero divisor takes the vector path, whose
// x/0 is 0.
func (b *ProgramBuilder) ArithConst(op plan.ArithOp, l int, v int64) int {
	if op == plan.Div && v == 0 {
		return b.Arith(op, l, b.Const(0))
	}
	return b.add(ExprNode{Op: ExprArithConst, Arith: op, L: l, Val: v})
}

// Case adds CASE WHEN cond THEN then ELSE els END.
func (b *ProgramBuilder) Case(cond Predicate, then, els int) int {
	return b.add(ExprNode{Op: ExprCase, Cond: cond, L: then, R: els})
}

// Program returns the nodes added so far; nil when there are none.
func (b *ProgramBuilder) Program() *Program {
	if len(b.prog.Nodes) == 0 {
		return nil
	}
	return &Program{Nodes: b.prog.Nodes}
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
