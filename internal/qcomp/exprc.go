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
		cond, err := compilePred(ex.Cond, cols)
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

// compilePred lowers a logical predicate to an executable ops.Predicate
// with a selectivity estimate from statistics — the input to predicate
// reordering and representation choice (§5.4).
func compilePred(p plan.Pred, cols []colInfo) (ops.Predicate, error) {
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
		sub := make([]ops.Predicate, len(pr.Preds))
		for i, s := range pr.Preds {
			c, err := compilePred(s, cols)
			if err != nil {
				return nil, err
			}
			sub[i] = c
		}
		return &ops.And{Preds: sub}, nil
	case *plan.OrPred:
		sub := make([]ops.Predicate, len(pr.Preds))
		for i, s := range pr.Preds {
			c, err := compilePred(s, cols)
			if err != nil {
				return nil, err
			}
			sub[i] = c
		}
		return &ops.Or{Preds: sub}, nil
	case *plan.NotPred:
		c, err := compilePred(pr.P, cols)
		if err != nil {
			return nil, err
		}
		return &ops.Not{P: c}, nil
	}
	return nil, fmt.Errorf("qcomp: unsupported predicate %T", p)
}

func compileCmp(c *plan.Cmp, cols []colInfo) (ops.Predicate, error) {
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
			return &ops.ConstCmp{
				Col: lc.Idx, Op: op, Val: val,
				Sel: cmpSelectivity(op, val, ci.stats),
			}, nil
		}
	}

	// Column vs column with equal scales.
	if lIsCol {
		if rcol, ok := r.(*plan.ColRef); ok && scaleOf(lc.T) == scaleOf(rcol.T) {
			return &ops.ColCmp{A: lc.Idx, B: rcol.Idx, Op: op, Sel: 0.3}, nil
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
			return nil, err
		}
		val, ok := rescaleConst(rc, target)
		if !ok {
			return nil, fmt.Errorf("qcomp: constant %s not representable at scale %d", rc, target)
		}
		return &ops.ExprCmp{E: le, Op: op, Val: val, Sel: 0.3}, nil
	}
	le, err := compileScaled(l, target, cols)
	if err != nil {
		return nil, err
	}
	re, err := compileScaled(r, target, cols)
	if err != nil {
		return nil, err
	}
	diff := &ops.BinExpr{Op: plan.Sub, L: le, R: re}
	return &ops.ExprCmp{E: diff, Op: op, Val: 0, Sel: 0.3}, nil
}

func compileStringCmp(op plan.CmpOp, lc *plan.ColRef, rc *plan.Const, ci colInfo) (ops.Predicate, error) {
	dict := ci.field.Dict
	if dict == nil {
		return nil, fmt.Errorf("qcomp: string column %s has no dictionary", lc.Name)
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
		return &ops.ConstCmp{Col: lc.Idx, Op: op, Val: int64(code), Sel: sel}, nil
	default:
		set, err := dict.CompareCodes(op.String(), rc.Str)
		if err != nil {
			return nil, fmt.Errorf("qcomp: string comparison on %s: %w", lc.Name, err)
		}
		sel := float64(set.Count()) / float64(maxInt(dict.Len(), 1))
		return &ops.InSet{Col: lc.Idx, Set: set.Bitmap(), Sel: sel}, nil
	}
}

func compileBetween(b *plan.BetweenPred, cols []colInfo) (ops.Predicate, error) {
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
		return nil, fmt.Errorf("qcomp: BETWEEN bounds not representable at column scale")
	}
	return &ops.Between{
		Col: lc.Idx, Lo: lo, Hi: hi,
		Sel: rangeSelectivity(lo, hi, ci.stats),
	}, nil
}

func compileIn(in *plan.InPred, cols []colInfo) (ops.Predicate, error) {
	lc, ok := in.E.(*plan.ColRef)
	if !ok {
		return nil, fmt.Errorf("qcomp: IN over non-column expression")
	}
	ci := cols[lc.Idx]
	if ci.field.Type.Kind == coltypes.KindString {
		dict := ci.field.Dict
		if dict == nil {
			return nil, fmt.Errorf("qcomp: string column %s has no dictionary", lc.Name)
		}
		set := dict.MatchCodes(func(string) bool { return false }) // empty
		for _, c := range in.List {
			if code := dict.Code(c.Str); code >= 0 {
				set.Bitmap().Set(int(code))
			}
		}
		sel := float64(set.Count()) / float64(maxInt(dict.Len(), 1))
		return &ops.InSet{Col: lc.Idx, Set: set.Bitmap(), Sel: sel}, nil
	}
	// Numeric IN: OR of equalities.
	var sub []ops.Predicate
	s := scaleOf(ci.field.Type)
	for _, c := range in.List {
		val, ok := rescaleConst(c, s)
		if !ok {
			continue
		}
		sub = append(sub, &ops.ConstCmp{
			Col: lc.Idx, Op: plan.EQ, Val: val,
			Sel: cmpSelectivity(plan.EQ, val, ci.stats),
		})
	}
	if len(sub) == 0 {
		return &ops.Not{P: ops.TruePred{}}, nil
	}
	return &ops.Or{Preds: sub}, nil
}

func compileLike(l *plan.LikePred, cols []colInfo) (ops.Predicate, error) {
	lc, ok := l.E.(*plan.ColRef)
	if !ok {
		return nil, fmt.Errorf("qcomp: LIKE over non-column expression")
	}
	ci := cols[lc.Idx]
	dict := ci.field.Dict
	if dict == nil {
		return nil, fmt.Errorf("qcomp: LIKE on non-dictionary column %s", lc.Name)
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
	sel := float64(set.Count()) / float64(maxInt(dict.Len(), 1))
	var pred ops.Predicate = &ops.InSet{Col: lc.Idx, Set: set.Bitmap(), Sel: sel}
	if l.Negate {
		pred = &ops.Not{P: pred}
	}
	return pred, nil
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
