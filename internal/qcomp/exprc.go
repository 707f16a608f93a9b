// Package qcomp is the RAPID query compiler and optimizer (paper §5.2): it
// takes the logical plan (already normalized by the host database) and
// produces a physical execution over the columnar engine, deciding physical
// operator variants, primitive and encoding selection per column,
// partitioning schemes (§5.3), task formation with DMEM sharing, and degree
// of parallelism, using the calibrated cost model.
package qcomp

import (
	"fmt"

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

// compileExpr lowers a typed logical expression to an executable ops.Expr,
// inserting scale-alignment arithmetic for DSB operands.
func compileExpr(e plan.Expr, cols []colInfo) (ops.Expr, error) {
	switch ex := e.(type) {
	case *plan.ColRef:
		if ex.Idx < 0 || ex.Idx >= len(cols) {
			return nil, fmt.Errorf("qcomp: column index %d out of schema", ex.Idx)
		}
		return &ops.ColRef{Idx: ex.Idx}, nil
	case *plan.Const:
		if ex.T.Kind == coltypes.KindString {
			return nil, fmt.Errorf("qcomp: string constant %q in arithmetic context", ex.Str)
		}
		return &ops.ConstExpr{Val: ex.Val}, nil
	case *plan.Arith:
		return compileArith(ex, cols)
	case *plan.CaseExpr:
		cond, _, err := compilePred(ex.Cond, cols)
		if err != nil {
			return nil, err
		}
		thenE, err := compileScaled(ex.Then, scaleOf(ex.T), cols)
		if err != nil {
			return nil, err
		}
		elseE, err := compileScaled(ex.Else, scaleOf(ex.T), cols)
		if err != nil {
			return nil, err
		}
		return &ops.CaseExpr{Cond: cond, Then: thenE, Else: elseE}, nil
	}
	return nil, fmt.Errorf("qcomp: unsupported expression %T", e)
}

// compileScaled compiles e and rescales its result to the target scale.
func compileScaled(e plan.Expr, target int8, cols []colInfo) (ops.Expr, error) {
	ce, err := compileExpr(e, cols)
	if err != nil {
		return nil, err
	}
	s := scaleOf(e.Type())
	switch {
	case s == target:
		return ce, nil
	case s < target:
		return &ops.BinExpr{Op: plan.Mul, L: ce, R: &ops.ConstExpr{Val: encoding.Pow10(int(target - s))}}, nil
	default:
		return &ops.BinExpr{Op: plan.Div, L: ce, R: &ops.ConstExpr{Val: encoding.Pow10(int(s - target))}}, nil
	}
}

func compileArith(a *plan.Arith, cols []colInfo) (ops.Expr, error) {
	switch a.Op {
	case plan.Add, plan.Sub:
		target := scaleOf(a.T)
		if a.T.Kind == coltypes.KindDate {
			target = 0
		}
		l, err := compileScaled(a.L, target, cols)
		if err != nil {
			return nil, err
		}
		r, err := compileScaled(a.R, target, cols)
		if err != nil {
			return nil, err
		}
		return &ops.BinExpr{Op: a.Op, L: l, R: r}, nil
	case plan.Mul:
		l, err := compileExpr(a.L, cols)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(a.R, cols)
		if err != nil {
			return nil, err
		}
		return &ops.BinExpr{Op: plan.Mul, L: l, R: r}, nil
	case plan.Div:
		// Result scale is DivScale: value = L*10^(DivScale - ls + rs) / R.
		l, err := compileExpr(a.L, cols)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(a.R, cols)
		if err != nil {
			return nil, err
		}
		ls, rs := scaleOf(a.L.Type()), scaleOf(a.R.Type())
		adj := int(plan.DivScale) - int(ls) + int(rs)
		num := l
		if adj > 0 {
			num = &ops.BinExpr{Op: plan.Mul, L: l, R: &ops.ConstExpr{Val: encoding.Pow10(adj)}}
		} else if adj < 0 {
			num = &ops.BinExpr{Op: plan.Div, L: l, R: &ops.ConstExpr{Val: encoding.Pow10(-adj)}}
		}
		return &ops.BinExpr{Op: plan.Div, L: num, R: r}, nil
	}
	return nil, fmt.Errorf("qcomp: unsupported arithmetic op %v", a.Op)
}

func scaleOf(t coltypes.Type) int8 {
	if t.Kind == coltypes.KindDecimal {
		return t.Scale
	}
	return 0
}

// compilePred lowers a logical predicate to an executable ops.Predicate and
// its selectivity estimate from statistics — the input to predicate
// reordering and representation choice (§5.4). Every conjunction comes back
// listed most-selective-first (a stable sort, so ties keep source order);
// estimates combine in source order: AND multiplies, OR is 1 − Π(1 − s),
// NOT is 1 − s.
func compilePred(p plan.Pred, cols []colInfo) (ops.Predicate, float64, error) {
	switch pr := p.(type) {
	case *plan.Cmp:
		return compileCmp(pr, cols)
	case *plan.BetweenPred:
		return compileBetween(pr, cols)
	case *plan.InPred:
		return compileIn(pr, cols)
	case *plan.LikePred:
		return compileLike(pr, cols)
	case *plan.AndPred:
		preds, sels, err := compileEach(pr.Preds, cols)
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
		preds, sels, err := compileEach(pr.Preds, cols)
		if err != nil {
			return nil, 0, err
		}
		miss := 1.0
		for _, s := range sels {
			miss *= 1 - s
		}
		return &ops.Or{Preds: preds}, 1 - miss, nil
	case *plan.NotPred:
		c, sel, err := compilePred(pr.P, cols)
		if err != nil {
			return nil, 0, err
		}
		return &ops.Not{P: c}, 1 - sel, nil
	}
	return nil, 0, fmt.Errorf("qcomp: unsupported predicate %T", p)
}

// compileEach compiles the members of an AND or OR, in source order.
func compileEach(ps []plan.Pred, cols []colInfo) ([]ops.Predicate, []float64, error) {
	preds, sels := make([]ops.Predicate, len(ps)), make([]float64, len(ps))
	for i, p := range ps {
		var err error
		if preds[i], sels[i], err = compilePred(p, cols); err != nil {
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

func compileCmp(c *plan.Cmp, cols []colInfo) (ops.Predicate, float64, error) {
	op := c.Op
	// Normalize const to the right.
	l, r := c.L, c.R
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
		ci := cols[lc.Idx]
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
	if rIsConst {
		le, err := compileScaled(l, target, cols)
		if err != nil {
			return nil, 0, err
		}
		val, ok := rescaleConst(rc, target)
		if !ok {
			return nil, 0, fmt.Errorf("qcomp: constant %s not representable at scale %d", rc, target)
		}
		return &ops.ExprCmp{E: le, Op: op, Val: val}, 0.3, nil
	}
	le, err := compileScaled(l, target, cols)
	if err != nil {
		return nil, 0, err
	}
	re, err := compileScaled(r, target, cols)
	if err != nil {
		return nil, 0, err
	}
	diff := &ops.BinExpr{Op: plan.Sub, L: le, R: re}
	return &ops.ExprCmp{E: diff, Op: op, Val: 0}, 0.3, nil
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

func compileBetween(b *plan.BetweenPred, cols []colInfo) (ops.Predicate, float64, error) {
	lc, ok := b.E.(*plan.ColRef)
	loC, okLo := b.Lo.(*plan.Const)
	hiC, okHi := b.Hi.(*plan.Const)
	if !ok || !okLo || !okHi {
		// Lower to two comparisons.
		lo := &plan.Cmp{Op: plan.GE, L: b.E, R: b.Lo}
		hi := &plan.Cmp{Op: plan.LE, L: b.E, R: b.Hi}
		return compilePred(&plan.AndPred{Preds: []plan.Pred{lo, hi}}, cols)
	}
	ci := cols[lc.Idx]
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
