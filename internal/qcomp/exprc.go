// Package qcomp is the RAPID query compiler and optimizer (paper §5.2): it
// takes the logical plan (already normalized by the host database) and
// produces a physical execution over the columnar engine, deciding physical
// operator variants, primitive and encoding selection per column,
// partitioning schemes (§5.3), task formation with DMEM sharing, and degree
// of parallelism, using the calibrated cost model.
package qcomp

import (
	"fmt"
	"reflect"

	"rapid/internal/coltypes"
	"rapid/internal/encoding"
	"rapid/internal/ops"
	"rapid/internal/plan"
	"rapid/internal/storage"
)

// colInfo is the compile-time knowledge about one tile column.
type colInfo struct {
	field plan.Field
	stats *storage.ColStats // nil when unknown (post-transform)
}

// exprc compiles every expression one operator reads — aggregate arguments,
// projection outputs, CASE arms, ExprCmp operands — into one shared
// ops.Program over the tile columns cols. The builder hash-conses the nodes,
// so an expression that appears twice is one node evaluated once per tile.
type exprc struct {
	cols []colInfo
	b    ops.ProgramBuilder
	// conds are the CASE conditions compiled so far: an equal condition
	// reuses its predicate, so equal CASE nodes hash-cons too.
	conds []caseCond
}

type caseCond struct {
	p    plan.Pred
	pred ops.Predicate
}

func newExprc(cols []colInfo) *exprc { return &exprc{cols: cols} }

// operand is a compiled expression: a program node, or a constant the
// compiler has not materialized, so that it can fold into its consumer.
type operand struct {
	node  int
	konst bool
	val   int64
}

func konst(v int64) operand { return operand{konst: true, val: v} }

// mat returns o's program node, materializing a constant.
func (c *exprc) mat(o operand) int {
	if o.konst {
		return c.b.Const(o.val)
	}
	return o.node
}

// node compiles e to a program node, inserting scale-alignment arithmetic
// for DSB operands.
func (c *exprc) node(e plan.Expr) (int, error) {
	o, err := c.expr(e)
	if err != nil {
		return 0, err
	}
	return c.mat(o), nil
}

// expr compiles e, folding constant subexpressions.
func (c *exprc) expr(e plan.Expr) (operand, error) {
	switch ex := e.(type) {
	case *plan.ColRef:
		if ex.Idx < 0 || ex.Idx >= len(c.cols) {
			return operand{}, fmt.Errorf("qcomp: column index %d out of schema", ex.Idx)
		}
		return operand{node: c.b.Col(ex.Idx)}, nil
	case *plan.Const:
		if ex.T.Kind == coltypes.KindString {
			return operand{}, fmt.Errorf("qcomp: string constant %q in arithmetic context", ex.Str)
		}
		return konst(ex.Val), nil
	case *plan.Arith:
		return c.arith(ex)
	case *plan.CaseExpr:
		cond, err := c.caseCond(ex.Cond)
		if err != nil {
			return operand{}, err
		}
		thenE, err := c.scaled(ex.Then, scaleOf(ex.T))
		if err != nil {
			return operand{}, err
		}
		elseE, err := c.scaled(ex.Else, scaleOf(ex.T))
		if err != nil {
			return operand{}, err
		}
		return operand{node: c.b.Case(cond, c.mat(thenE), c.mat(elseE))}, nil
	}
	return operand{}, fmt.Errorf("qcomp: unsupported expression %T", e)
}

// caseCond compiles a CASE condition, reusing the predicate of an equal
// condition compiled before.
func (c *exprc) caseCond(p plan.Pred) (ops.Predicate, error) {
	for _, cc := range c.conds {
		if reflect.DeepEqual(cc.p, p) {
			return cc.pred, nil
		}
	}
	pred, _, err := c.pred(p)
	if err != nil {
		return nil, err
	}
	c.conds = append(c.conds, caseCond{p: p, pred: pred})
	return pred, nil
}

// scaled compiles e and rescales its result to the target scale; a constant
// rescales at compile time.
func (c *exprc) scaled(e plan.Expr, target int8) (operand, error) {
	o, err := c.expr(e)
	if err != nil {
		return operand{}, err
	}
	return c.rescale(o, scaleOf(e.Type()), target), nil
}

// rescale aligns o from scale s to the target scale.
func (c *exprc) rescale(o operand, s, target int8) operand {
	switch {
	case s < target:
		return c.apply(plan.Mul, o, konst(encoding.Pow10(int(target-s))))
	case s > target:
		return c.apply(plan.Div, o, konst(encoding.Pow10(int(s-target))))
	}
	return o
}

// apply compiles l op r. Two constants fold with the runtime kernels'
// integer semantics (int64 wrap-around, truncating division); a zero divisor
// keeps the vector path, whose x/0 is 0 like the row engine's. A constant
// operand of a commutative op goes right, where the *Const primitives take
// it without materializing a vector.
func (c *exprc) apply(op plan.ArithOp, l, r operand) operand {
	if l.konst && r.konst && (op != plan.Div || r.val != 0) {
		switch op {
		case plan.Add:
			return konst(l.val + r.val)
		case plan.Sub:
			return konst(l.val - r.val)
		case plan.Mul:
			return konst(l.val * r.val)
		default:
			return konst(l.val / r.val)
		}
	}
	if l.konst && !r.konst && (op == plan.Add || op == plan.Mul) {
		l, r = r, l
	}
	if r.konst {
		return operand{node: c.b.ArithConst(op, c.mat(l), r.val)}
	}
	return operand{node: c.b.Arith(op, c.mat(l), r.node)}
}

func (c *exprc) arith(a *plan.Arith) (operand, error) {
	switch a.Op {
	case plan.Add, plan.Sub:
		target := scaleOf(a.T)
		if a.T.Kind == coltypes.KindDate {
			target = 0
		}
		l, err := c.scaled(a.L, target)
		if err != nil {
			return operand{}, err
		}
		r, err := c.scaled(a.R, target)
		if err != nil {
			return operand{}, err
		}
		return c.apply(a.Op, l, r), nil
	case plan.Mul, plan.Div:
		l, err := c.expr(a.L)
		if err != nil {
			return operand{}, err
		}
		r, err := c.expr(a.R)
		if err != nil {
			return operand{}, err
		}
		if a.Op == plan.Mul {
			return c.apply(plan.Mul, l, r), nil
		}
		// Result scale is DivScale: value = L*10^(DivScale - ls + rs) / R.
		ls, rs := scaleOf(a.L.Type()), scaleOf(a.R.Type())
		num := c.rescale(l, ls, plan.DivScale+rs)
		return c.apply(plan.Div, num, r), nil
	}
	return operand{}, fmt.Errorf("qcomp: unsupported arithmetic op %v", a.Op)
}

func scaleOf(t coltypes.Type) int8 {
	if t.Kind == coltypes.KindDecimal {
		return t.Scale
	}
	return 0
}

// pred lowers a logical predicate to an executable ops.Predicate and
// its selectivity estimate from statistics — the input to predicate
// reordering and representation choice (§5.4). Every conjunction comes back
// listed most-selective-first (a stable sort, so ties keep source order);
// estimates combine in source order: AND multiplies, OR is 1 − Π(1 − s),
// NOT is 1 − s.
func (c *exprc) pred(p plan.Pred) (ops.Predicate, float64, error) {
	switch pr := p.(type) {
	case *plan.Cmp:
		return c.cmp(pr)
	case *plan.BetweenPred:
		return c.between(pr)
	case *plan.InPred:
		return compileIn(pr, c.cols)
	case *plan.LikePred:
		return compileLike(pr, c.cols)
	case *plan.AndPred:
		preds, sels, err := c.each(pr.Preds)
		if err != nil {
			return nil, 0, err
		}
		all := 1.0
		for _, s := range sels {
			all *= s
		}
		// Most selective first. An insertion sort is stable: ties keep
		// source order.
		for i := 1; i < len(sels); i++ {
			for j := i; j > 0 && sels[j] < sels[j-1]; j-- {
				sels[j], sels[j-1] = sels[j-1], sels[j]
				preds[j], preds[j-1] = preds[j-1], preds[j]
			}
		}
		return &ops.And{Preds: preds}, all, nil
	case *plan.OrPred:
		preds, sels, err := c.each(pr.Preds)
		if err != nil {
			return nil, 0, err
		}
		miss := 1.0
		for _, s := range sels {
			miss *= 1 - s
		}
		return &ops.Or{Preds: preds}, 1 - miss, nil
	case *plan.NotPred:
		np, sel, err := c.pred(pr.P)
		if err != nil {
			return nil, 0, err
		}
		return &ops.Not{P: np}, 1 - sel, nil
	}
	return nil, 0, fmt.Errorf("qcomp: unsupported predicate %T", p)
}

// each compiles the members of an AND or OR, in source order.
func (c *exprc) each(ps []plan.Pred) ([]ops.Predicate, []float64, error) {
	preds, sels := make([]ops.Predicate, len(ps)), make([]float64, len(ps))
	for i, p := range ps {
		var err error
		if preds[i], sels[i], err = c.pred(p); err != nil {
			return nil, nil, err
		}
	}
	return preds, sels, nil
}

// leafSel is the estimate of a leaf predicate: a statistic outside (0, 1] —
// a LIKE that matches no dictionary code, say — counts as 0.5.
func leafSel(s float64) float64 {
	if s <= 0 || s > 1 {
		return 0.5
	}
	return s
}

func (c *exprc) cmp(cmp *plan.Cmp) (ops.Predicate, float64, error) {
	op := cmp.Op
	// Normalize const to the right.
	l, r := cmp.L, cmp.R
	if _, isConst := l.(*plan.Const); isConst {
		l, r = r, l
		op = op.Swap()
	}
	lc, lIsCol := l.(*plan.ColRef)
	rc, rIsConst := r.(*plan.Const)

	// Column vs constant: the fast path. A constant that does not rescale
	// exactly to the column scale (e.g. integer column vs fractional
	// literal) falls through to the scale-widening expression path.
	if lIsCol && rIsConst {
		ci := c.cols[lc.Idx]
		// String comparison binds through the dictionary.
		if ci.field.Type.Kind == coltypes.KindString {
			return compileStringCmp(op, lc, rc, ci)
		}
		if val, ok := rescaleConst(rc, scaleOf(ci.field.Type)); ok {
			return &ops.ConstCmp{Col: lc.Idx, Op: op, Val: val}, leafSel(cmpSelectivity(op, val, ci.stats)), nil
		}
	}

	// Column vs column with equal scales.
	if lIsCol {
		if rcol, ok := r.(*plan.ColRef); ok && scaleOf(lc.T) == scaleOf(rcol.T) {
			return &ops.ColCmp{A: lc.Idx, B: rcol.Idx, Op: op}, 0.3, nil
		}
	}

	// General case: expression comparison. Align both sides to a common
	// scale and compare the difference against the constant (or evaluate
	// both as expressions via subtraction against zero).
	ls, rs := scaleOf(l.Type()), scaleOf(r.Type())
	target := ls
	if rs > target {
		target = rs
	}
	le, err := c.scaled(l, target)
	if err != nil {
		return nil, 0, err
	}
	if rIsConst {
		val, ok := rescaleConst(rc, target)
		if !ok {
			return nil, 0, fmt.Errorf("qcomp: constant %s not representable at scale %d", rc, target)
		}
		return &ops.ExprCmp{Node: c.mat(le), Op: op, Val: val}, 0.3, nil
	}
	re, err := c.scaled(r, target)
	if err != nil {
		return nil, 0, err
	}
	return &ops.ExprCmp{Node: c.mat(c.apply(plan.Sub, le, re)), Op: op, Val: 0}, 0.3, nil
}

func compileStringCmp(op plan.CmpOp, lc *plan.ColRef, rc *plan.Const, ci colInfo) (ops.Predicate, float64, error) {
	dict := ci.field.Dict
	if dict == nil {
		return nil, 0, fmt.Errorf("qcomp: string column %s has no dictionary", lc.Name)
	}
	switch op {
	case plan.EQ, plan.NE:
		code := dict.Code(rc.Str)
		if code < 0 {
			// Unknown string: EQ matches nothing, NE matches everything.
			// Compile to a comparison against an impossible code.
			code = int32(dict.Len()) + 1
		}
		sel := 1.0 / float64(maxInt(dict.Len(), 1))
		if op == plan.NE {
			sel = 1 - sel
		}
		return &ops.ConstCmp{Col: lc.Idx, Op: op, Val: int64(code)}, leafSel(sel), nil
	default:
		set, err := dict.CompareCodes(op.String(), rc.Str)
		if err != nil {
			return nil, 0, fmt.Errorf("qcomp: string comparison on %s: %w", lc.Name, err)
		}
		return &ops.InSet{Col: lc.Idx, Set: set.Bitmap()}, leafSel(float64(set.Count()) / float64(maxInt(dict.Len(), 1))), nil
	}
}

func (c *exprc) between(b *plan.BetweenPred) (ops.Predicate, float64, error) {
	lc, ok := b.E.(*plan.ColRef)
	loC, okLo := b.Lo.(*plan.Const)
	hiC, okHi := b.Hi.(*plan.Const)
	if !ok || !okLo || !okHi {
		// Lower to two comparisons.
		lo := &plan.Cmp{Op: plan.GE, L: b.E, R: b.Lo}
		hi := &plan.Cmp{Op: plan.LE, L: b.E, R: b.Hi}
		return c.pred(&plan.AndPred{Preds: []plan.Pred{lo, hi}})
	}
	ci := c.cols[lc.Idx]
	s := scaleOf(ci.field.Type)
	lo, ok1 := rescaleConst(loC, s)
	hi, ok2 := rescaleConst(hiC, s)
	if !ok1 || !ok2 {
		return nil, 0, fmt.Errorf("qcomp: BETWEEN bounds not representable at column scale")
	}
	return &ops.Between{Col: lc.Idx, Lo: lo, Hi: hi}, leafSel(rangeSelectivity(lo, hi, ci.stats)), nil
}

func compileIn(in *plan.InPred, cols []colInfo) (ops.Predicate, float64, error) {
	lc, ok := in.E.(*plan.ColRef)
	if !ok {
		return nil, 0, fmt.Errorf("qcomp: IN over non-column expression")
	}
	ci := cols[lc.Idx]
	if ci.field.Type.Kind == coltypes.KindString {
		dict := ci.field.Dict
		if dict == nil {
			return nil, 0, fmt.Errorf("qcomp: string column %s has no dictionary", lc.Name)
		}
		set := dict.MatchCodes(func(string) bool { return false }) // empty
		for _, c := range in.List {
			if code := dict.Code(c.Str); code >= 0 {
				set.Bitmap().Set(int(code))
			}
		}
		return &ops.InSet{Col: lc.Idx, Set: set.Bitmap()}, leafSel(float64(set.Count()) / float64(maxInt(dict.Len(), 1))), nil
	}
	// Numeric IN: OR of equalities.
	var sub []ops.Predicate
	miss := 1.0
	s := scaleOf(ci.field.Type)
	for _, c := range in.List {
		val, ok := rescaleConst(c, s)
		if !ok {
			continue
		}
		sub = append(sub, &ops.ConstCmp{Col: lc.Idx, Op: plan.EQ, Val: val})
		miss *= 1 - leafSel(cmpSelectivity(plan.EQ, val, ci.stats))
	}
	if len(sub) == 0 {
		return &ops.Not{P: ops.TruePred{}}, 0, nil
	}
	return &ops.Or{Preds: sub}, 1 - miss, nil
}

func compileLike(l *plan.LikePred, cols []colInfo) (ops.Predicate, float64, error) {
	lc, ok := l.E.(*plan.ColRef)
	if !ok {
		return nil, 0, fmt.Errorf("qcomp: LIKE over non-column expression")
	}
	ci := cols[lc.Idx]
	dict := ci.field.Dict
	if dict == nil {
		return nil, 0, fmt.Errorf("qcomp: LIKE on non-dictionary column %s", lc.Name)
	}
	var set *encoding.CodeSet
	switch l.Kind {
	case plan.LikePrefix:
		set = dict.PrefixCodes(l.Pattern)
	case plan.LikeSuffix:
		set = dict.SuffixCodes(l.Pattern)
	case plan.LikeContains:
		set = dict.ContainsCodes(l.Pattern)
	case plan.LikeExact:
		set = dict.MatchCodes(func(s string) bool { return s == l.Pattern })
	}
	pred, sel := &ops.InSet{Col: lc.Idx, Set: set.Bitmap()}, leafSel(float64(set.Count())/float64(maxInt(dict.Len(), 1)))
	if l.Negate {
		return &ops.Not{P: pred}, 1 - sel, nil
	}
	return pred, sel, nil
}

// rescaleConst converts a numeric/date constant to the target DSB scale.
func rescaleConst(c *plan.Const, target int8) (int64, bool) {
	s := scaleOf(c.T)
	d := encoding.Decimal{Unscaled: c.Val, Scale: s}
	return d.Rescale(target)
}

// cmpSelectivity estimates predicate selectivity from column statistics
// assuming a uniform value distribution.
func cmpSelectivity(op plan.CmpOp, val int64, st *storage.ColStats) float64 {
	if st == nil || st.Max < st.Min {
		return 0.3
	}
	width := float64(st.Max-st.Min) + 1
	switch op {
	case plan.EQ:
		if st.NDV > 0 {
			return 1 / float64(st.NDV)
		}
		return 1 / width
	case plan.NE:
		if st.NDV > 0 {
			return 1 - 1/float64(st.NDV)
		}
		return 1 - 1/width
	case plan.LT, plan.LE:
		f := (float64(val) - float64(st.Min)) / width
		return clamp01(f)
	case plan.GT, plan.GE:
		f := (float64(st.Max) - float64(val)) / width
		return clamp01(f)
	}
	return 0.3
}

func rangeSelectivity(lo, hi int64, st *storage.ColStats) float64 {
	if st == nil || st.Max <= st.Min {
		return 0.3
	}
	width := float64(st.Max-st.Min) + 1
	f := (float64(hi) - float64(lo) + 1) / width
	return clamp01(f)
}

func clamp01(f float64) float64 {
	if f < 0.001 {
		return 0.001
	}
	if f > 1 {
		return 1
	}
	return f
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
