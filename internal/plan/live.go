package plan

import "fmt"

// Live returns n with every column dropped after its last reader, so that the
// engines move only the columns a query reads (paper §4). Walking down from
// the root with the columns each node's parent reads:
//   - a Join outputs only those columns (Out), and asks each input for them
//     plus its own keys;
//   - a Scan reads only the columns its ancestors read;
//   - a Project computes only the outputs read above it;
//   - a Filter asks its input for its own predicate's columns as well, and
//     where such a column dies below a join, a Project of bare column
//     references ends the filter's pipeline. QComp compiles that Project into
//     a header move in the same pipeline, which costs nothing.
//
// Every other operator reads all of its input's columns. Expressions over a
// narrowed input are rebuilt over its new column positions; the root's
// columns do not change.
//
// Live runs once on each execution's bound plan, after the last rewrite that
// moves a join: the tray's lift (internal/cluster) moves a semi join above
// inner joins and reads its key among their output columns, which Live may
// drop.
func Live(n Node) (Node, error) {
	out, m, err := narrow(n, needAll(len(n.Schema())))
	if err != nil {
		return nil, err
	}
	if !identity(m) {
		return nil, fmt.Errorf("plan: live columns moved the root's columns")
	}
	return out, nil
}

// narrow rebuilds n to output at least the columns set in need (one flag per
// column of n's output). m maps each of n's output columns to its position
// in the rebuilt node's output, or -1 where it is dropped.
func narrow(n Node, need []bool) (Node, []int, error) {
	switch v := n.(type) {
	case *Scan:
		var cols []int
		for i, c := range v.Cols {
			if need[i] {
				cols = append(cols, c)
			}
		}
		// A scan nothing reads still counts rows (COUNT(*)): keep it whole.
		if len(cols) == 0 || len(cols) == len(v.Cols) {
			return v, identityMap(len(v.Cols)), nil
		}
		return NewScan(v.Table, v.SCN, cols), positions(need), nil

	case *Filter:
		in := append([]bool(nil), need...)
		markPred(v.Pred, in)
		child, m, err := narrow(v.Input, in)
		if err != nil || child == v.Input {
			return v, m, err
		}
		return &Filter{Input: child, Pred: remapPred(v.Pred, m)}, m, nil

	case *Project:
		keep := make([]int, 0, len(v.Exprs))
		for i := range v.Exprs {
			if need[i] {
				keep = append(keep, i)
			}
		}
		if len(keep) == 0 { // an input of nothing read: keep its first column
			keep = append(keep, 0)
		}
		in := make([]bool, len(v.Input.Schema()))
		for _, i := range keep {
			markExpr(v.Exprs[i], in)
		}
		child, cm, err := narrow(v.Input, in)
		if err != nil {
			return nil, nil, err
		}
		if child == v.Input && len(keep) == len(v.Exprs) {
			return v, identityMap(len(v.Exprs)), nil
		}
		p := &Project{Input: child, Exprs: make([]Expr, len(keep)), Names: make([]string, len(keep))}
		m := make([]int, len(v.Exprs))
		for i := range m {
			m[i] = -1
		}
		for j, i := range keep {
			m[i] = j
			p.Exprs[j] = remapExpr(v.Exprs[i], cm)
			if i < len(v.Names) {
				p.Names[j] = v.Names[i]
			}
		}
		return p, m, nil

	case *GroupBy:
		in := make([]bool, len(v.Input.Schema()))
		for _, k := range v.Keys {
			markExpr(k, in)
		}
		for _, a := range v.Aggs {
			if a.Arg != nil {
				markExpr(a.Arg, in)
			}
		}
		child, cm, err := narrow(v.Input, in)
		id := identityMap(len(v.Keys) + len(v.Aggs))
		if err != nil || child == v.Input {
			return v, id, err
		}
		g := &GroupBy{Input: child, Keys: make([]Expr, len(v.Keys)), Aggs: make([]AggExpr, len(v.Aggs))}
		for i, k := range v.Keys {
			g.Keys[i] = remapExpr(k, cm)
		}
		for i, a := range v.Aggs {
			g.Aggs[i] = a
			if a.Arg != nil {
				g.Aggs[i].Arg = remapExpr(a.Arg, cm)
			}
		}
		return g, id, nil

	case *Join:
		return narrowJoin(v, need)
	}

	// Any other operator reads every column of its inputs and outputs its own
	// columns unchanged.
	kids := n.Children()
	changed := false
	for i, k := range kids {
		c, m, err := narrow(k, needAll(len(k.Schema())))
		if err != nil {
			return nil, nil, err
		}
		if !identity(m) {
			return nil, nil, fmt.Errorf("plan: live columns narrowed the input of %s", n)
		}
		kids[i], changed = c, changed || c != k
	}
	id := identityMap(len(n.Schema()))
	if !changed {
		return n, id, nil
	}
	out, err := WithChildren(n, kids...)
	return out, id, err
}

// narrowJoin gives j the columns set in need as its Out, and narrows each
// input to what Out and the join's keys read.
func narrowJoin(j *Join, need []bool) (Node, []int, error) {
	nl, nr := len(j.Left.Schema()), len(j.Right.Schema())
	src := j.Out // output column -> position in left ++ right
	if src == nil {
		width := nl
		if j.Type != SemiJoin && j.Type != AntiJoin {
			width += nr
		}
		src = identityMap(width)
	}
	need = keepOne(need, src, j.LeftKeys)
	lneed, rneed := make([]bool, nl), make([]bool, nr)
	for i, c := range src {
		switch {
		case !need[i]:
		case c < nl:
			lneed[c] = true
		default:
			rneed[c-nl] = true
		}
	}
	for k := range j.LeftKeys {
		lneed[j.LeftKeys[k]], rneed[j.RightKeys[k]] = true, true
	}
	left, lm, err := narrowInput(j.Left, lneed)
	if err != nil {
		return nil, nil, err
	}
	right, rm, err := narrowInput(j.Right, rneed)
	if err != nil {
		return nil, nil, err
	}
	width := len(left.Schema())
	if j.Type != SemiJoin && j.Type != AntiJoin {
		width += len(right.Schema())
	}
	out := make([]int, 0, len(src))
	m := make([]int, len(src))
	for i, c := range src {
		m[i] = -1
		if !need[i] {
			continue
		}
		m[i] = len(out)
		if c < nl {
			out = append(out, lm[c])
		} else {
			out = append(out, len(left.Schema())+rm[c-nl])
		}
	}
	if len(out) == width && identity(out) {
		out = nil
	}
	return &Join{
		Type: j.Type, Left: left, Right: right,
		LeftKeys: remapCols(j.LeftKeys, lm), RightKeys: remapCols(j.RightKeys, rm),
		Out: out,
	}, m, nil
}

// keepOne returns need, or, where it flags no column, need with one column
// flagged: a join's output of no column would have no rows, and a COUNT(*)
// above it reads their number. It keeps the first left key where the join
// outputs it (the input reads it anyway), else the first column.
func keepOne(need []bool, src, leftKeys []int) []bool {
	for _, ok := range need {
		if ok {
			return need
		}
	}
	need = make([]bool, len(need))
	need[0] = true
	for i, c := range src {
		if len(leftKeys) > 0 && c == leftKeys[0] {
			need[0], need[i] = false, true
			break
		}
	}
	return need
}

// narrowInput narrows a join's input to the columns set in need. A filter
// that outputs more (the columns only its predicate reads) gets a Project of
// bare column references on top: it ends the filter's pipeline, where it is a
// header move, and the sink collects only the columns it keeps.
func narrowInput(n Node, need []bool) (Node, []int, error) {
	child, m, err := narrow(n, need)
	if err != nil {
		return nil, nil, err
	}
	if _, ok := child.(*Filter); !ok {
		return child, m, nil
	}
	fs := child.Schema()
	sel := make([]bool, len(fs))
	for i, ok := range need {
		if ok {
			sel[m[i]] = true
		}
	}
	p := &Project{Input: child}
	for c, f := range fs {
		if sel[c] {
			p.Exprs = append(p.Exprs, &ColRef{Idx: c, Name: f.Name, T: f.Type, Dict: f.Dict})
			p.Names = append(p.Names, f.Name)
		}
	}
	if len(p.Exprs) == len(fs) {
		return child, m, nil
	}
	pm := positions(sel)
	for i, c := range m {
		if c >= 0 {
			m[i] = pm[c]
		}
	}
	return p, m, nil
}

// needAll flags every one of n columns.
func needAll(n int) []bool {
	need := make([]bool, n)
	for i := range need {
		need[i] = true
	}
	return need
}

// identityMap is the column map of a node that keeps its n columns in place.
func identityMap(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// positions maps each flagged column to its rank among the flagged ones, and
// every other column to -1.
func positions(keep []bool) []int {
	m := make([]int, len(keep))
	at := 0
	for i, k := range keep {
		m[i] = -1
		if k {
			m[i], at = at, at+1
		}
	}
	return m
}

func identity(m []int) bool {
	for i, c := range m {
		if c != i {
			return false
		}
	}
	return true
}

func remapCols(cols, m []int) []int {
	out := make([]int, len(cols))
	for i, c := range cols {
		out[i] = m[c]
	}
	return out
}

// markExpr flags every column e reads.
func markExpr(e Expr, need []bool) {
	rewriteExpr(e, func(c *ColRef) *ColRef { need[c.Idx] = true; return c })
}

func markPred(p Pred, need []bool) {
	rewritePred(p, func(c *ColRef) *ColRef { need[c.Idx] = true; return c })
}

// remapExpr rebuilds e over an input whose columns moved by m.
func remapExpr(e Expr, m []int) Expr { return rewriteExpr(e, moved(m)) }

func remapPred(p Pred, m []int) Pred { return rewritePred(p, moved(m)) }

func moved(m []int) func(*ColRef) *ColRef {
	return func(c *ColRef) *ColRef {
		if m[c.Idx] == c.Idx {
			return c
		}
		r := *c
		r.Idx = m[c.Idx]
		return &r
	}
}

// rewriteExpr returns a copy of e with every column reference c replaced by
// ref(c).
func rewriteExpr(e Expr, ref func(*ColRef) *ColRef) Expr {
	switch v := e.(type) {
	case *ColRef:
		return ref(v)
	case *Arith:
		return &Arith{Op: v.Op, L: rewriteExpr(v.L, ref), R: rewriteExpr(v.R, ref), T: v.T}
	case *CaseExpr:
		return &CaseExpr{Cond: rewritePred(v.Cond, ref), Then: rewriteExpr(v.Then, ref), Else: rewriteExpr(v.Else, ref), T: v.T}
	}
	return e // a constant
}

// rewritePred is rewriteExpr over every expression of a predicate.
func rewritePred(p Pred, ref func(*ColRef) *ColRef) Pred {
	switch v := p.(type) {
	case *Cmp:
		return &Cmp{Op: v.Op, L: rewriteExpr(v.L, ref), R: rewriteExpr(v.R, ref)}
	case *BetweenPred:
		return &BetweenPred{E: rewriteExpr(v.E, ref), Lo: rewriteExpr(v.Lo, ref), Hi: rewriteExpr(v.Hi, ref)}
	case *InPred:
		return &InPred{E: rewriteExpr(v.E, ref), List: v.List}
	case *LikePred:
		c := *v
		c.E = rewriteExpr(v.E, ref)
		return &c
	case *AndPred:
		return &AndPred{Preds: rewritePreds(v.Preds, ref)}
	case *OrPred:
		return &OrPred{Preds: rewritePreds(v.Preds, ref)}
	case *NotPred:
		return &NotPred{P: rewritePred(v.P, ref)}
	}
	return p
}

func rewritePreds(ps []Pred, ref func(*ColRef) *ColRef) []Pred {
	out := make([]Pred, len(ps))
	for i, p := range ps {
		out[i] = rewritePred(p, ref)
	}
	return out
}
