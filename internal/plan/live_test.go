package plan_test

import (
	"slices"
	"testing"

	"rapid/internal/plan"
)

// readsCol reports whether a column reference to col occurs in e or p.
func readsCol(col int, es []plan.Expr, ps []plan.Pred) bool {
	found := false
	var expr func(plan.Expr)
	var pred func(plan.Pred)
	expr = func(e plan.Expr) {
		switch v := e.(type) {
		case *plan.ColRef:
			found = found || v.Idx == col
		case *plan.Arith:
			expr(v.L)
			expr(v.R)
		case *plan.CaseExpr:
			pred(v.Cond)
			expr(v.Then)
			expr(v.Else)
		}
	}
	pred = func(p plan.Pred) {
		switch v := p.(type) {
		case *plan.Cmp:
			expr(v.L)
			expr(v.R)
		case *plan.BetweenPred:
			expr(v.E)
			expr(v.Lo)
			expr(v.Hi)
		case *plan.InPred:
			expr(v.E)
		case *plan.LikePred:
			expr(v.E)
		case *plan.AndPred:
			for _, q := range v.Preds {
				pred(q)
			}
		case *plan.OrPred:
			for _, q := range v.Preds {
				pred(q)
			}
		case *plan.NotPred:
			pred(v.P)
		}
	}
	for _, e := range es {
		expr(e)
	}
	for _, p := range ps {
		pred(p)
	}
	return found
}

// readAbove follows output column col of path[len(path)-1] up through its
// ancestors (path[0] is the root) and reports whether one of them reads it:
// an expression, predicate, key or sort item names it, or the root outputs it.
// A column an ancestor passes on is followed to its position there; one an
// ancestor drops without reading it is dead.
func readAbove(path []plan.Node, col int) bool {
	for d := len(path) - 1; d > 0; d-- {
		child, parent := path[d], path[d-1]
		switch p := parent.(type) {
		case *plan.Filter:
			if readsCol(col, nil, []plan.Pred{p.Pred}) {
				return true
			}
		case *plan.Project:
			return readsCol(col, p.Exprs, nil)
		case *plan.GroupBy:
			es := slices.Clone(p.Keys)
			for _, a := range p.Aggs {
				if a.Arg != nil {
					es = append(es, a.Arg)
				}
			}
			return readsCol(col, es, nil)
		case *plan.Sort:
			for _, k := range p.Keys {
				if k.Col == col {
					return true
				}
			}
		case *plan.Limit:
		case *plan.Join:
			keys, pos := p.LeftKeys, col
			if child == p.Right {
				keys, pos = p.RightKeys, col+len(p.Left.Schema())
				if p.Type == plan.SemiJoin || p.Type == plan.AntiJoin {
					return slices.Contains(keys, col)
				}
			}
			if slices.Contains(keys, col) {
				return true
			}
			if p.Out != nil {
				if pos = slices.Index(p.Out, pos); pos < 0 {
					return false
				}
			}
			col = pos
		default: // a set operation or window reads its whole input
			return true
		}
	}
	return true // the root outputs it
}

// joinColumns walks every join of the plan under path's last node: it counts
// the columns the joins output and counts apart the dead ones, those no
// ancestor reads, reporting each to t when t is not nil.
func joinColumns(t *testing.T, name string, path []plan.Node) (total, dead int) {
	n := path[len(path)-1]
	if _, ok := n.(*plan.Join); ok {
		fs := n.Schema()
		total += len(fs)
		for c := range fs {
			if readAbove(path, c) {
				continue
			}
			dead++
			if t != nil {
				t.Errorf("%s: %s outputs %s (column %d), which nothing above it reads", name, n, fs[c].Name, c)
			}
		}
	}
	for _, k := range n.Children() {
		kt, kd := joinColumns(t, name, append(slices.Clip(path), k))
		total, dead = total+kt, dead+kd
	}
	return total, dead
}

// TestJoinsOutputOnlyLiveColumns: in every TPC-H plan after plan.Live, each
// column a join outputs is read by one of its ancestors, the root's output
// included, and the plan outputs the columns the bound plan does. The joins of
// the eleven statements output 176 columns as bound; 78 of them are live.
func TestJoinsOutputOnlyLiveColumns(t *testing.T) {
	bound, boundDead, live := 0, 0, 0
	for name, root := range tpchPlans(t) {
		n, d := joinColumns(nil, name, []plan.Node{root})
		bound, boundDead = bound+n, boundDead+d
		got, err := plan.Live(root)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(got.Schema(), root.Schema()) {
			t.Errorf("%s: live columns changed the plan's output", name)
		}
		n, _ = joinColumns(t, name, []plan.Node{got})
		live += n
	}
	if bound != 176 || bound-boundDead != live || live != 78 {
		t.Errorf("joins output %d columns as bound, %d of them read above the join, and %d after plan.Live; want 176, 78 and 78",
			bound, bound-boundDead, live)
	}
}
