package sqlparse

// The one walk over the AST. It visits every expression and predicate node
// under its root, a parent before its children and operands in source order:
// both sides of a binary operator, a CASE's condition and both branches, a
// call's argument and OVER keys, and the operands of every predicate form. It
// never enters an IN subquery, which binds on its own. Column pruning, alias
// classification, aggregate collection, the aggregate and window checks and
// StmtTables all call it, each picking out the node kinds it needs.

// walkExpr visits e and every node beneath it.
func walkExpr(e AstExpr, visit func(node any)) {
	if e == nil {
		return
	}
	visit(e)
	switch ex := e.(type) {
	case *BinExpr:
		walkExpr(ex.L, visit)
		walkExpr(ex.R, visit)
	case *CaseExpr:
		walkPred(ex.Cond, visit)
		walkExpr(ex.Then, visit)
		walkExpr(ex.Else, visit)
	case *FuncExpr:
		walkExpr(ex.Arg, visit)
		if ex.Over != nil {
			for _, p := range ex.Over.PartitionBy {
				walkExpr(p, visit)
			}
			for _, o := range ex.Over.OrderBy {
				walkExpr(o.Expr, visit)
			}
		}
	}
}

// walkPred visits p and every node beneath it.
func walkPred(p AstPred, visit func(node any)) {
	if p == nil {
		return
	}
	visit(p)
	switch pr := p.(type) {
	case *CmpPred:
		walkExpr(pr.L, visit)
		walkExpr(pr.R, visit)
	case *BetweenP:
		walkExpr(pr.E, visit)
		walkExpr(pr.Lo, visit)
		walkExpr(pr.Hi, visit)
	case *InP:
		walkExpr(pr.E, visit)
		for _, i := range pr.List {
			walkExpr(i, visit)
		}
	case *LikeP:
		walkExpr(pr.E, visit)
	case *IsNullP:
		walkExpr(pr.E, visit)
	case *AndP:
		for _, s := range pr.Preds {
			walkPred(s, visit)
		}
	case *OrP:
		for _, s := range pr.Preds {
			walkPred(s, visit)
		}
	case *NotP:
		walkPred(pr.P, visit)
	}
}

// walkStmt visits every clause of one SELECT block; a set operation's right
// side is a block of its own.
func walkStmt(s *SelectStmt, visit func(node any)) {
	for _, item := range s.Select {
		walkExpr(item.Expr, visit)
	}
	walkPred(s.Where, visit)
	for _, j := range s.Joins {
		walkPred(j.On, visit)
	}
	for _, g := range s.GroupBy {
		walkExpr(g, visit)
	}
	walkPred(s.Having, visit)
	for _, o := range s.OrderBy {
		walkExpr(o.Expr, visit)
	}
}

// calls reports whether e holds an aggregate call and whether it holds a
// window call.
func calls(e AstExpr) (agg, win bool) {
	walkExpr(e, func(n any) {
		if f, ok := n.(*FuncExpr); ok {
			agg = agg || f.Over == nil
			win = win || f.Over != nil
		}
	})
	return agg, win
}
