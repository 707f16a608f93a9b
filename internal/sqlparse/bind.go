package sqlparse

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"rapid/internal/coltypes"
	"rapid/internal/encoding"
	"rapid/internal/plan"
	"rapid/internal/storage"
)

// Catalog resolves table names to loaded RAPID tables.
type Catalog interface {
	Lookup(name string) (*storage.Table, error)
}

// Bind resolves a parsed statement against the catalog into a typed logical
// plan, applying the host-database-style normalizations: predicate
// classification (per-table filters vs join edges vs residual), greedy join
// ordering (smallest first), IN-subquery to semi-join rewrite, aggregate
// extraction and output projection.
func Bind(stmt *SelectStmt, cat Catalog, scn uint64) (plan.Node, error) {
	b := &binder{cat: cat, scn: scn}
	return b.bindSelect(stmt)
}

type binder struct {
	cat Catalog
	scn uint64
}

// tableScope tracks one FROM table during binding.
type tableScope struct {
	alias string
	table *storage.Table
	node  plan.Node
	rows  int64
}

// scopeCol is one position of a row scope: the originating alias and column
// name, and the field it carries.
type scopeCol struct {
	alias string
	name  string
	field plan.Field
}

// ref is a reference to the scope column at position idx.
func (c *scopeCol) ref(idx int) *plan.ColRef {
	return &plan.ColRef{Idx: idx, Name: c.name, T: c.field.Type, Dict: c.field.Dict}
}

// resolver is a scope's meaning for the two leaves whose binding depends on
// where an expression sits: a column reference and a function call. The one
// expression binder (bindExpr, bindPred) takes it. Below a GROUP BY
// (rowScope) a column is an input position and a call is an error; above it
// (groupScope) a column is a group key and a call its aggregate; above the
// window columns (windowScope) a window call is its column.
type resolver interface {
	column(*ColName) (plan.Expr, error)
	call(*FuncExpr) (plan.Expr, error)
}

// rowScope is the evolving row schema during join construction, position by
// position.
type rowScope []scopeCol

func (s rowScope) column(c *ColName) (plan.Expr, error) {
	idx, sc, err := s.lookup(c)
	if err != nil {
		return nil, err
	}
	return sc.ref(idx), nil
}

func (rowScope) call(f *FuncExpr) (plan.Expr, error) {
	return nil, fmt.Errorf("sqlparse: aggregate %s outside aggregation context", f.Name)
}

// groupScope is the output of a GROUP BY: its keys, then its aggregates.
type groupScope struct {
	in     rowScope          // the GROUP BY's input
	keyOf  map[string]int    // "alias.name", and ".name" when grouped unqualified -> key position
	aggPos map[*FuncExpr]int // collected aggregate call -> output position
	out    []plan.Field
}

func (g *groupScope) column(c *ColName) (plan.Expr, error) {
	_, sc, err := g.in.lookup(c)
	if err != nil {
		return nil, err
	}
	k, ok := g.keyOf[sc.alias+"."+sc.name]
	if !ok {
		k, ok = g.keyOf["."+sc.name]
	}
	if !ok {
		return nil, fmt.Errorf("sqlparse: column %s not in GROUP BY", sc.name)
	}
	return &plan.ColRef{Idx: k, Name: sc.name, T: g.out[k].Type, Dict: g.out[k].Dict}, nil
}

func (g *groupScope) call(f *FuncExpr) (plan.Expr, error) {
	pos, ok := g.aggPos[f]
	if !ok {
		return nil, fmt.Errorf("sqlparse: aggregate not collected")
	}
	return &plan.ColRef{Idx: pos, Name: g.out[pos].Name, T: g.out[pos].Type}, nil
}

// windowScope is a row scope extended by the columns its plan.Window nodes
// appended: a top-level window call resolves to its column.
type windowScope struct {
	rowScope
	at  map[*FuncExpr]int // window call -> appended column position
	out []plan.Field
}

func (w windowScope) call(f *FuncExpr) (plan.Expr, error) {
	idx, ok := w.at[f]
	if !ok {
		return w.rowScope.call(f)
	}
	return &plan.ColRef{Idx: idx, Name: strings.ToLower(f.Name), T: w.out[idx].Type}, nil
}

func (b *binder) bindSelect(stmt *SelectStmt) (plan.Node, error) {
	if stmt.SetOp != "" {
		left := *stmt
		left.SetOp, left.SetRight = "", nil
		ln, err := b.bindSelect(&left)
		if err != nil {
			return nil, err
		}
		rn, err := b.bindSelect(stmt.SetRight)
		if err != nil {
			return nil, err
		}
		kind := map[string]plan.SetOpKind{
			"UNION": plan.Union, "UNION ALL": plan.UnionAll,
			"INTERSECT": plan.Intersect, "MINUS": plan.Minus,
		}[stmt.SetOp]
		return &plan.SetOp{Kind: kind, Left: ln, Right: rn}, nil
	}

	// Resolve tables and referenced columns.
	scopes, err := b.resolveTables(stmt)
	if err != nil {
		return nil, err
	}

	// Classify conjuncts.
	var conjuncts []AstPred
	flattenAnd(stmt.Where, &conjuncts)
	var edges []joinEdge
	var residual []AstPred
	var semis []*InP
	perTable := map[string][]AstPred{}

	// Aliases on the nullable side of a LEFT JOIN. WHERE predicates on such
	// a table must run above the join: filtering its scan instead would turn
	// probe rows that lose their only match into padded output rows.
	nullableAlias := map[string]bool{}
	for _, j := range stmt.Joins {
		if j.Kind == "LEFT" {
			nullableAlias[j.Table.Alias] = true
		}
	}

	classify := func(p AstPred, fromJoinOn string) {
		if in, ok := p.(*InP); ok && in.Sub != nil {
			semis = append(semis, in)
			return
		}
		aliases := predAliases(p, scopes)
		switch len(aliases) {
		case 0:
			residual = append(residual, p) // constant predicate
		case 1:
			if fromJoinOn == "" && nullableAlias[aliases[0]] {
				residual = append(residual, p)
			} else {
				perTable[aliases[0]] = append(perTable[aliases[0]], p)
			}
		case 2:
			// A WHERE equality involving a LEFT JOIN's nullable side must
			// not become a join edge either — merged into the join keys it
			// would pad rows the filter should drop.
			whereOnNullable := fromJoinOn == "" &&
				(nullableAlias[aliases[0]] || nullableAlias[aliases[1]])
			if cp, ok := p.(*CmpPred); ok && cp.Op == "=" && !whereOnNullable {
				lcol, lok := cp.L.(*ColName)
				rcol, rok := cp.R.(*ColName)
				if lok && rok {
					la, lc := resolveAlias(lcol, scopes)
					ra, rc := resolveAlias(rcol, scopes)
					if la != "" && ra != "" && la != ra {
						edges = append(edges, joinEdge{la: la, ra: ra, lc: lc, rc: rc, leftKind: fromJoinOn})
						return
					}
				}
			}
			fallthrough
		default:
			residual = append(residual, p)
		}
	}
	for _, c := range conjuncts {
		classify(c, "")
	}
	for _, j := range stmt.Joins {
		var onConj []AstPred
		flattenAnd(j.On, &onConj)
		for _, c := range onConj {
			classify(c, j.Kind)
		}
	}

	// Per-table filters.
	for _, sc := range scopes {
		cols := scopeColsOf(sc)
		for _, p := range perTable[sc.alias] {
			bp, err := bindPred(p, cols)
			if err != nil {
				return nil, err
			}
			sc.node = &plan.Filter{Input: sc.node, Pred: bp}
			sc.rows = sc.rows/3 + 1
		}
	}

	// Join tree: explicit joins in statement order, then greedy over the
	// remaining edges starting from the smallest table.
	cur, curCols, err := b.buildJoinTree(stmt, scopes, edges)
	if err != nil {
		return nil, err
	}

	// Semi-join rewrites for IN subqueries, each placed where its key lives.
	for _, in := range semis {
		sub, err := b.bindSelect(in.Sub)
		if err != nil {
			return nil, err
		}
		if len(sub.Schema()) != 1 {
			return nil, fmt.Errorf("sqlparse: IN subquery must return one column")
		}
		col, ok := in.E.(*ColName)
		if !ok {
			return nil, fmt.Errorf("sqlparse: IN subquery needs a column on the left")
		}
		idx, _, err := curCols.lookup(col)
		if err != nil {
			return nil, err
		}
		typ := plan.SemiJoin
		if in.Not {
			typ = plan.AntiJoin
		}
		cur = pushSemi(cur, idx, typ, sub)
	}

	// Residual predicates.
	for _, p := range residual {
		bp, err := bindPred(p, curCols)
		if err != nil {
			return nil, err
		}
		cur = &plan.Filter{Input: cur, Pred: bp}
	}

	// Aggregation / window functions.
	hasAgg := stmt.GroupBy != nil || stmt.Having != nil
	hasWindow := false
	for _, item := range stmt.Select {
		agg, win := calls(item.Expr)
		hasAgg = hasAgg || agg
		hasWindow = hasWindow || win
	}
	if hasAgg && hasWindow {
		return nil, fmt.Errorf("sqlparse: window functions cannot be combined with aggregation")
	}

	var outNode plan.Node
	switch {
	case hasWindow:
		outNode, err = bindWindows(stmt, cur, curCols)
	case hasAgg:
		outNode, err = bindAggregate(stmt, cur, curCols)
	default:
		outNode, err = project(stmt.Select, cur, curCols)
	}
	if err != nil {
		return nil, err
	}

	// ORDER BY over the output schema.
	if len(stmt.OrderBy) > 0 {
		items, err := bindOrderBy(stmt.OrderBy, outNode)
		if err != nil {
			return nil, err
		}
		outNode = &plan.Sort{Input: outNode, Keys: items}
	}
	if stmt.Limit >= 0 {
		outNode = &plan.Limit{Input: outNode, K: stmt.Limit}
	}
	return outNode, nil
}

// resolveTables builds a scan (with column pruning) per FROM/JOIN table.
func (b *binder) resolveTables(stmt *SelectStmt) ([]*tableScope, error) {
	refs := append([]TableRef(nil), stmt.From...)
	for _, j := range stmt.Joins {
		refs = append(refs, j.Table)
	}
	// Referenced columns, as written (qualified or not); SELECT * needs all.
	used := map[ColName]bool{}
	walkStmt(stmt, func(n any) {
		if c, ok := n.(*ColName); ok {
			used[*c] = true
		}
	})
	star := false
	for _, item := range stmt.Select {
		star = star || item.Star
	}

	scopes := make([]*tableScope, 0, len(refs))
	seen := map[string]bool{}
	for _, r := range refs {
		if seen[r.Alias] {
			return nil, fmt.Errorf("sqlparse: duplicate table alias %q", r.Alias)
		}
		seen[r.Alias] = true
		tbl, err := b.cat.Lookup(r.Name)
		if err != nil {
			return nil, err
		}
		// Prune to the columns referenced by alias, by table name or
		// unqualified, in table order; nil (nothing referenced, or SELECT *)
		// scans everything.
		var cols []int
		for i := 0; !star && i < tbl.Schema().NumCols(); i++ {
			name := tbl.Schema().Col(i).Name
			if used[ColName{Table: r.Alias, Name: name}] || used[ColName{Table: r.Name, Name: name}] ||
				used[ColName{Name: name}] {
				cols = append(cols, i)
			}
		}
		scan := plan.NewScan(tbl, b.scn, cols)
		scopes = append(scopes, &tableScope{alias: r.Alias, table: tbl, node: scan, rows: int64(tbl.Rows())})
	}
	return scopes, nil
}

func scopeOf(scopes []*tableScope, alias string) *tableScope {
	for _, s := range scopes {
		if s.alias == alias {
			return s
		}
	}
	return nil
}

func scopeColsOf(sc *tableScope) rowScope {
	fs := sc.node.Schema()
	cols := make(rowScope, len(fs))
	for i, f := range fs {
		cols[i] = scopeCol{alias: sc.alias, name: f.Name, field: f}
	}
	return cols
}

// joinEdge is one equi-join condition between two table aliases.
type joinEdge struct {
	la, ra   string // aliases
	lc, rc   string // column names
	leftKind string // "INNER" or "LEFT" for explicit joins
}

// buildJoinTree folds the tables into a left-deep join tree.
func (b *binder) buildJoinTree(stmt *SelectStmt, scopes []*tableScope, edges []joinEdge) (plan.Node, rowScope, error) {
	if len(scopes) == 1 {
		return scopes[0].node, scopeColsOf(scopes[0]), nil
	}
	joined := map[string]bool{}
	// Start from the largest table as the probe/output side; joining
	// smaller tables into it keeps build sides small.
	start := scopes[0]
	for _, s := range scopes[1:] {
		if s.rows > start.rows {
			start = s
		}
	}
	// Explicit LEFT joins pin the left side: start from the first FROM
	// table in that case.
	for _, e := range edges {
		if e.leftKind == "LEFT" {
			start = scopes[0]
			break
		}
	}
	cur := start.node
	curCols := scopeColsOf(start)
	joined[start.alias] = true
	remaining := len(scopes) - 1

	edgeUsable := func(e joinEdge) (string, bool) {
		if joined[e.la] && !joined[e.ra] {
			return e.ra, true
		}
		if joined[e.ra] && !joined[e.la] {
			return e.la, true
		}
		return "", false
	}

	// joinFanout estimates the output growth of joining table `alias`
	// through its column `col`: rows / NDV(col). A primary-key edge gives
	// ~1 (no growth); a foreign-key edge multiplies cardinality and is
	// deferred — the host optimizer's logical join ordering.
	joinFanout := func(alias, col string) float64 {
		sc := scopeOf(scopes, alias)
		if sc == nil {
			return 1e18
		}
		idx := sc.table.Schema().ColIndex(col)
		stats := sc.table.Stats()
		if idx < 0 || stats == nil || idx >= len(stats.Cols) || stats.Cols[idx].NDV <= 0 {
			return float64(sc.rows)
		}
		return float64(sc.rows) / float64(stats.Cols[idx].NDV)
	}

	for remaining > 0 {
		// Pick the joinable table with the smallest fan-out (PK-FK edges
		// first), breaking ties by table size.
		var bestAlias string
		bestFanout := 1e18
		bestRows := int64(1) << 62
		for _, e := range edges {
			a, ok := edgeUsable(e)
			if !ok {
				continue
			}
			col := e.rc
			if a == e.la {
				col = e.lc
			}
			f := joinFanout(a, col)
			sc := scopeOf(scopes, a)
			if sc == nil {
				continue
			}
			if f < bestFanout || (f == bestFanout && sc.rows < bestRows) {
				bestFanout, bestRows, bestAlias = f, sc.rows, a
			}
		}
		if bestAlias == "" {
			return nil, nil, fmt.Errorf("sqlparse: cross join (no join condition connects all tables)")
		}
		next := scopeOf(scopes, bestAlias)
		nextCols := scopeColsOf(next)
		// Gather all usable edges to this table (composite keys).
		var lk, rk []int
		kind := plan.InnerJoin
		for _, e := range edges {
			var curAlias, curCol, nextCol string
			switch {
			case joined[e.la] && e.ra == bestAlias:
				curAlias, curCol, nextCol = e.la, e.lc, e.rc
			case joined[e.ra] && e.la == bestAlias:
				curAlias, curCol, nextCol = e.ra, e.rc, e.lc
			default:
				continue
			}
			if e.leftKind == "LEFT" {
				kind = plan.LeftOuterJoin
			}
			li, _, err := curCols.lookup(&ColName{Table: curAlias, Name: curCol})
			if err != nil {
				return nil, nil, err
			}
			ri, _, err := nextCols.lookup(&ColName{Table: bestAlias, Name: nextCol})
			if err != nil {
				return nil, nil, err
			}
			lk = append(lk, li)
			rk = append(rk, ri)
		}
		if len(lk) > 2 {
			lk, rk = lk[:2], rk[:2]
		}
		cur = &plan.Join{Type: kind, Left: cur, Right: next.node, LeftKeys: lk, RightKeys: rk}
		curCols = append(curCols, nextCols...)
		joined[bestAlias] = true
		remaining--
	}
	return cur, curCols, nil
}

// pushSemi places a semi or anti join (typ) of column col of n's output
// against sub's only column directly above the input that owns col: down
// through inner joins, to the side the column comes from. Any other node — a
// table's scan or filter, an outer, semi or anti join — takes it on top, so
// nothing moves into the nullable side of a LEFT JOIN. A semi or anti join
// keeps its left's schema: no column position above it moves.
func pushSemi(n plan.Node, col int, typ plan.JoinType, sub plan.Node) plan.Node {
	j, ok := n.(*plan.Join)
	if !ok || j.Type != plan.InnerJoin {
		return &plan.Join{Type: typ, Left: n, Right: sub, LeftKeys: []int{col}, RightKeys: []int{0}}
	}
	c := *j
	if nl := len(j.Left.Schema()); col < nl {
		c.Left = pushSemi(j.Left, col, typ, sub)
	} else {
		c.Right = pushSemi(j.Right, col-nl, typ, sub)
	}
	return &c
}

// project binds the SELECT list through r into the output projection; a star
// expands to every column of a row scope.
func project(items []SelectItem, input plan.Node, r resolver) (plan.Node, error) {
	var exprs []plan.Expr
	var names []string
	for _, item := range items {
		if item.Star {
			cols, ok := r.(rowScope)
			if !ok {
				return nil, fmt.Errorf("sqlparse: SELECT * with aggregate or window functions")
			}
			for i := range cols {
				exprs = append(exprs, cols[i].ref(i))
				names = append(names, cols[i].name)
			}
			continue
		}
		e, err := bindExpr(item.Expr, r)
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
		names = append(names, outName(item, e))
	}
	return &plan.Project{Input: input, Exprs: exprs, Names: names}, nil
}

// outName is a SELECT item's output column name: its alias, else the
// column's name, the call's lower-cased name, or the bound expression e.
func outName(item SelectItem, e plan.Expr) string {
	if item.As != "" {
		return item.As
	}
	switch ex := item.Expr.(type) {
	case *ColName:
		return ex.Name
	case *FuncExpr:
		return strings.ToLower(ex.Name)
	}
	return e.String()
}

// bindWindows lowers windowed SELECT items: each OVER call appends one
// plan.Window column to the input, and a final projection selects the
// output order. Window arguments, PARTITION BY and ORDER BY must be plain
// columns.
func bindWindows(stmt *SelectStmt, input plan.Node, cols rowScope) (plan.Node, error) {
	cur := input
	winIdx := map[*FuncExpr]int{} // window call -> appended column index
	next := len(cols)

	colIdx := func(e AstExpr) (int, error) {
		cn, ok := e.(*ColName)
		if !ok {
			return 0, fmt.Errorf("sqlparse: window clauses support plain columns only")
		}
		idx, _, err := cols.lookup(cn)
		return idx, err
	}
	for _, item := range stmt.Select {
		f, ok := item.Expr.(*FuncExpr)
		if !ok || f.Over == nil {
			if _, nested := calls(item.Expr); nested {
				return nil, fmt.Errorf("sqlparse: window calls must be top-level SELECT items")
			}
			continue
		}
		w := &plan.Window{Input: cur, Name: "win"}
		switch f.Name {
		case "ROW_NUMBER":
			w.Func = plan.RowNumber
		case "RANK":
			w.Func = plan.Rank
		case "DENSE_RANK":
			w.Func = plan.DenseRank
		case "SUM":
			if len(f.Over.OrderBy) > 0 {
				w.Func = plan.CumSum
			} else {
				w.Func = plan.WinTotalSum
			}
			vc, err := colIdx(f.Arg)
			if err != nil {
				return nil, err
			}
			w.ValueCol = vc
		default:
			return nil, fmt.Errorf("sqlparse: unsupported window function %s", f.Name)
		}
		for _, p := range f.Over.PartitionBy {
			idx, err := colIdx(p)
			if err != nil {
				return nil, err
			}
			w.PartitionBy = append(w.PartitionBy, idx)
		}
		for _, o := range f.Over.OrderBy {
			idx, err := colIdx(o.Expr)
			if err != nil {
				return nil, err
			}
			w.OrderBy = append(w.OrderBy, plan.SortItem{Col: idx, Desc: o.Desc})
		}
		cur = w
		winIdx[f] = next
		next++
	}

	// Final projection in SELECT order.
	return project(stmt.Select, cur, windowScope{rowScope: cols, at: winIdx, out: cur.Schema()})
}

// bindAggregate builds GroupBy + post-projection (+ HAVING).
func bindAggregate(stmt *SelectStmt, input plan.Node, cols rowScope) (plan.Node, error) {
	g := &groupScope{in: cols, keyOf: map[string]int{}, aggPos: map[*FuncExpr]int{}}
	// Group keys.
	var keys []plan.Expr
	for _, e := range stmt.GroupBy {
		cn, ok := e.(*ColName)
		if !ok {
			return nil, fmt.Errorf("sqlparse: GROUP BY supports plain columns only")
		}
		idx, sc, err := cols.lookup(cn)
		if err != nil {
			return nil, err
		}
		g.keyOf[sc.alias+"."+sc.name] = len(keys)
		if cn.Table == "" {
			g.keyOf["."+sc.name] = len(keys)
		}
		keys = append(keys, sc.ref(idx))
	}

	// Collect the aggregate calls of SELECT and HAVING, arguments bound
	// against the input.
	var aggs []plan.AggExpr
	var err error
	collect := func(n any) {
		f, ok := n.(*FuncExpr)
		if !ok || err != nil {
			return
		}
		if f.Over != nil {
			err = fmt.Errorf("sqlparse: window functions cannot be combined with aggregation")
			return
		}
		agg := plan.AggExpr{Kind: aggKinds[f.Name], Name: fmt.Sprintf("agg%d", len(aggs))}
		if f.Star {
			agg.Kind = plan.CountStar
		} else if agg.Arg, err = bindExpr(f.Arg, cols); err != nil {
			return
		} else if agg.Kind != plan.Count && agg.Arg.Type().Kind == coltypes.KindString {
			// A string column holds dictionary codes: summing or ordering
			// them would answer in codes, not strings.
			err = fmt.Errorf("sqlparse: %s over a string argument is not supported", f.Name)
			return
		}
		g.aggPos[f] = len(keys) + len(aggs)
		aggs = append(aggs, agg)
	}
	for _, item := range stmt.Select {
		walkExpr(item.Expr, collect)
	}
	walkPred(stmt.Having, collect)
	if err != nil {
		return nil, err
	}

	gb := &plan.GroupBy{Input: input, Keys: keys, Aggs: aggs}
	g.out = gb.Schema()
	var node plan.Node = gb
	// HAVING.
	if stmt.Having != nil {
		hp, err := bindPred(stmt.Having, g)
		if err != nil {
			return nil, err
		}
		node = &plan.Filter{Input: node, Pred: hp}
	}
	return project(stmt.Select, node, g)
}

var aggKinds = map[string]plan.AggKind{
	"SUM": plan.Sum, "AVG": plan.Avg, "MIN": plan.Min, "MAX": plan.Max, "COUNT": plan.Count,
}

// bindOrderBy resolves ORDER BY terms to output columns, by name or by
// 1-based position.
func bindOrderBy(items []OrderItem, node plan.Node) ([]plan.SortItem, error) {
	schema := node.Schema()
	out := make([]plan.SortItem, len(items))
	for i, it := range items {
		idx := -1
		switch e := it.Expr.(type) {
		case *ColName:
			idx = slices.IndexFunc(schema, func(f plan.Field) bool { return f.Name == e.Name })
		case *NumLit:
			p, err := strconv.Atoi(e.Text)
			if err == nil && p >= 1 && p <= len(schema) {
				idx = p - 1
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("sqlparse: ORDER BY term %d does not match an output column", i+1)
		}
		out[i] = plan.SortItem{Col: idx, Desc: it.Desc}
	}
	return out, nil
}

// --- expression/predicate binding -------------------------------------------

// bindExpr is the one expression binder: r resolves the column references
// and function calls, everything else binds the same in every scope.
func bindExpr(e AstExpr, r resolver) (plan.Expr, error) {
	switch ex := e.(type) {
	case *ColName:
		return r.column(ex)
	case *FuncExpr:
		return r.call(ex)
	case *NumLit:
		return bindNum(ex)
	case *StrLit:
		return &plan.Const{T: coltypes.String(), Str: ex.Val}, nil
	case *DateLit:
		return &plan.Const{T: coltypes.Date(), Val: ex.Days}, nil
	case *BinExpr:
		l, err := bindExpr(ex.L, r)
		if err != nil {
			return nil, err
		}
		right, err := bindExpr(ex.R, r)
		if err != nil {
			return nil, err
		}
		return plan.NewArith(arithOp(ex.Op), l, right)
	case *CaseExpr:
		cond, err := bindPred(ex.Cond, r)
		if err != nil {
			return nil, err
		}
		thenE, err := bindExpr(ex.Then, r)
		if err != nil {
			return nil, err
		}
		elseE, err := bindExpr(ex.Else, r)
		if err != nil {
			return nil, err
		}
		return plan.NewCase(cond, thenE, elseE)
	}
	return nil, fmt.Errorf("sqlparse: unsupported expression %T", e)
}

func bindNum(n *NumLit) (plan.Expr, error) {
	d, err := encoding.ParseDecimal(n.Text)
	if err != nil {
		return nil, fmt.Errorf("sqlparse: bad number %q: %w", n.Text, err)
	}
	t := coltypes.Int()
	if d.Scale > 0 {
		t = coltypes.Decimal(d.Scale)
	}
	return &plan.Const{T: t, Val: d.Unscaled}, nil
}

func bindPred(p AstPred, r resolver) (plan.Pred, error) {
	switch pr := p.(type) {
	case *CmpPred:
		l, err := bindExpr(pr.L, r)
		if err != nil {
			return nil, err
		}
		right, err := bindExpr(pr.R, r)
		if err != nil {
			return nil, err
		}
		return &plan.Cmp{Op: cmpOpOf(pr.Op), L: l, R: right}, nil
	case *BetweenP:
		e, err := bindExpr(pr.E, r)
		if err != nil {
			return nil, err
		}
		lo, err := bindExpr(pr.Lo, r)
		if err != nil {
			return nil, err
		}
		hi, err := bindExpr(pr.Hi, r)
		if err != nil {
			return nil, err
		}
		return &plan.BetweenPred{E: e, Lo: lo, Hi: hi}, nil
	case *InP:
		if pr.Sub != nil {
			return nil, fmt.Errorf("sqlparse: IN subquery in unsupported position")
		}
		e, err := bindExpr(pr.E, r)
		if err != nil {
			return nil, err
		}
		var list []*plan.Const
		for _, item := range pr.List {
			be, err := bindExpr(item, r)
			if err != nil {
				return nil, err
			}
			c, ok := be.(*plan.Const)
			if !ok {
				return nil, fmt.Errorf("sqlparse: IN list items must be constants")
			}
			list = append(list, c)
		}
		var out plan.Pred = &plan.InPred{E: e, List: list}
		if pr.Not {
			out = &plan.NotPred{P: out}
		}
		return out, nil
	case *LikeP:
		e, err := bindExpr(pr.E, r)
		if err != nil {
			return nil, err
		}
		kind, needle := classifyLike(pr.Pattern)
		return &plan.LikePred{E: e, Kind: kind, Pattern: needle, Negate: pr.Not}, nil
	case *IsNullP:
		// The value domain has no NULL (every column is NOT NULL and all
		// expressions are total), so IS NULL is constant false and
		// IS NOT NULL constant true. Still bind the operand so invalid
		// column references are rejected.
		if _, err := bindExpr(pr.E, r); err != nil {
			return nil, err
		}
		op := plan.NE // IS NULL: never true
		if pr.Not {
			op = plan.EQ // IS NOT NULL: always true
		}
		c := coltypes.Int()
		return &plan.Cmp{Op: op, L: &plan.Const{T: c, Val: 1}, R: &plan.Const{T: c, Val: 1}}, nil
	case *AndP:
		out := &plan.AndPred{}
		for _, s := range pr.Preds {
			bs, err := bindPred(s, r)
			if err != nil {
				return nil, err
			}
			out.Preds = append(out.Preds, bs)
		}
		return out, nil
	case *OrP:
		out := &plan.OrPred{}
		for _, s := range pr.Preds {
			bs, err := bindPred(s, r)
			if err != nil {
				return nil, err
			}
			out.Preds = append(out.Preds, bs)
		}
		return out, nil
	case *NotP:
		inner, err := bindPred(pr.P, r)
		if err != nil {
			return nil, err
		}
		return &plan.NotPred{P: inner}, nil
	}
	return nil, fmt.Errorf("sqlparse: unsupported predicate %T", p)
}

// classifyLike splits a LIKE pattern into the supported shapes.
func classifyLike(pattern string) (plan.LikeKind, string) {
	pre := strings.HasPrefix(pattern, "%")
	suf := strings.HasSuffix(pattern, "%")
	needle := strings.Trim(pattern, "%")
	switch {
	case pre && suf:
		return plan.LikeContains, needle
	case pre:
		return plan.LikeSuffix, needle
	case suf:
		return plan.LikePrefix, needle
	default:
		return plan.LikeExact, needle
	}
}

// --- helpers -----------------------------------------------------------------

func flattenAnd(p AstPred, out *[]AstPred) {
	if p == nil {
		return
	}
	if a, ok := p.(*AndP); ok {
		for _, s := range a.Preds {
			flattenAnd(s, out)
		}
		return
	}
	*out = append(*out, p)
}

// predAliases returns the distinct table aliases a predicate references, in
// order of first reference.
func predAliases(p AstPred, scopes []*tableScope) []string {
	var out []string
	walkPred(p, func(n any) {
		if c, ok := n.(*ColName); ok {
			if a, _ := resolveAlias(c, scopes); a != "" && !slices.Contains(out, a) {
				out = append(out, a)
			}
		}
	})
	return out
}

// resolveAlias maps a column name to its table alias (empty if unknown or
// ambiguous).
func resolveAlias(c *ColName, scopes []*tableScope) (alias, col string) {
	if c.Table != "" {
		if sc := scopeOf(scopes, c.Table); sc != nil {
			return c.Table, c.Name
		}
		// Qualifier may be a table name used with a different alias.
		for _, sc := range scopes {
			if sc.table.Name() == c.Table {
				return sc.alias, c.Name
			}
		}
		return "", c.Name
	}
	found := ""
	for _, sc := range scopes {
		if sc.table.Schema().ColIndex(c.Name) >= 0 {
			if found != "" {
				return "", c.Name // ambiguous
			}
			found = sc.alias
		}
	}
	return found, c.Name
}

// lookup resolves a column name against the scope.
func (s rowScope) lookup(c *ColName) (int, *scopeCol, error) {
	idx := -1
	for i := range s {
		sc := &s[i]
		if sc.name != c.Name {
			continue
		}
		if c.Table != "" && sc.alias != c.Table {
			continue
		}
		if idx >= 0 {
			return 0, nil, fmt.Errorf("sqlparse: ambiguous column %q", c.Name)
		}
		idx = i
	}
	if idx < 0 {
		return 0, nil, fmt.Errorf("sqlparse: unknown column %q", c.Name)
	}
	return idx, &s[idx], nil
}

func arithOp(op string) plan.ArithOp {
	switch op {
	case "+":
		return plan.Add
	case "-":
		return plan.Sub
	case "*":
		return plan.Mul
	default:
		return plan.Div
	}
}

func cmpOpOf(op string) plan.CmpOp {
	switch op {
	case "=":
		return plan.EQ
	case "<>":
		return plan.NE
	case "<":
		return plan.LT
	case "<=":
		return plan.LE
	case ">":
		return plan.GT
	default:
		return plan.GE
	}
}
