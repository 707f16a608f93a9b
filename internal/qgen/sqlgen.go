package qgen

import (
	"fmt"
	"strings"
)

// SortChk records an ORDER BY key as an output position (0-based) for
// post-hoc sortedness verification on the result relation.
type SortChk struct {
	Pos  int
	Desc bool
}

// Query is one generated SQL query plus the metadata the runner needs to
// check it (expected ordering, limit) and to build metamorphic variants
// (where-conjunct injection scope).
type Query struct {
	Class string

	raw   string   // set-op queries are fully assembled and not extendable
	sel   []string // rendered select items
	from  string
	where []string // conjuncts, each parenthesized
	tail  string   // " GROUP BY ..."/" HAVING ..." suffix
	order string   // " ORDER BY ..." or ""
	limit int      // -1 = none

	NOut      int
	SortKeys  []SortChk
	FullOrder bool // ORDER BY covers every output position

	scope []*Column // columns usable for extra predicates (TLP/tautology)
}

// SQL assembles the query string.
func (q *Query) SQL() string {
	if q.raw != "" {
		return q.raw
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	b.WriteString(strings.Join(q.sel, ", "))
	b.WriteString(" FROM ")
	b.WriteString(q.from)
	if len(q.where) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(q.where, " AND "))
	}
	b.WriteString(q.tail)
	b.WriteString(q.order)
	if q.limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.limit)
	}
	return b.String()
}

// WithConjunct returns the query with one extra AND conjunct. Only valid
// when Extendable.
func (q *Query) WithConjunct(c string) string {
	cp := *q
	cp.where = append(append([]string{}, q.where...), c)
	return cp.SQL()
}

// Extendable reports whether WithConjunct produces a valid query.
func (q *Query) Extendable() bool { return q.raw == "" }

// TLPable reports whether the TLP identity Q ≡ Q WHERE p ⊎ Q WHERE NOT p ⊎
// Q WHERE p IS NULL holds structurally: row-level selection only, no
// aggregation/windows/set ops/order/limit.
func (q *Query) TLPable() bool {
	return (q.Class == "simple" || q.Class == "join") &&
		q.raw == "" && q.tail == "" && q.order == "" && q.limit < 0
}

// TautologyOK reports whether adding a tautological conjunct must preserve
// the result bag: any extendable query whose limit (if any) is under a
// total order.
func (q *Query) TautologyOK() bool {
	return q.Extendable() && (q.limit < 0 || q.FullOrder || q.limit == 0)
}

// NextQuery generates one random query against the current scenario.
func (g *Generator) NextQuery() *Query {
	if g.sc == nil {
		g.NewScenario()
	}
	r := g.rng.Float64()
	multi := len(g.sc.Tables) >= 2
	switch {
	case r < 0.30:
		return g.genSimple()
	case r < 0.55:
		return g.genAgg()
	case r < 0.70:
		if multi {
			return g.genJoin()
		}
		return g.genSimple()
	case r < 0.80:
		return g.genSetOp()
	case r < 0.90:
		return g.genWindow()
	default:
		if multi {
			return g.genSemiJoin()
		}
		return g.genAgg()
	}
}

func (g *Generator) table() *Table { return g.sc.Tables[g.intn(len(g.sc.Tables))] }

func colPtrs(t *Table) []*Column {
	out := make([]*Column, len(t.Cols))
	for i := range t.Cols {
		out[i] = &t.Cols[i]
	}
	return out
}

// --- scalar expressions ------------------------------------------------------

// intExpr renders a random integer-typed scalar expression over t's int
// columns. Integer division is deliberately never generated: its semantics
// are engine-defined (documented divergence).
func (g *Generator) intExpr(cols []*Column, depth int) string {
	ints := intCols(cols)
	if len(ints) == 0 || (depth > 0 && g.chance(0.4)) {
		return fmt.Sprintf("%d", 1+g.intn(9))
	}
	c := ints[g.intn(len(ints))]
	if depth >= 2 || g.chance(0.45) {
		return c.Name
	}
	switch g.intn(4) {
	case 0:
		return fmt.Sprintf("(%s + %s)", c.Name, g.intExpr(cols, depth+1))
	case 1:
		return fmt.Sprintf("(%s - %s)", c.Name, g.intExpr(cols, depth+1))
	case 2:
		return fmt.Sprintf("(%s * %d)", c.Name, 1+g.intn(5))
	default:
		return fmt.Sprintf("CASE WHEN %s THEN %s ELSE %s END",
			g.predAtom(cols), c.Name, g.intExpr(cols, depth+1))
	}
}

func intCols(cols []*Column) []*Column {
	var out []*Column
	for _, c := range cols {
		if c.IsInt() {
			out = append(out, c)
		}
	}
	return out
}

// --- predicates --------------------------------------------------------------

var cmpOps = []string{"=", "<>", "<", "<=", ">", ">="}

// predAtom renders one atomic predicate over the given columns.
func (g *Generator) predAtom(cols []*Column) string {
	// Filter to predicate-friendly columns.
	var cands []*Column
	for _, c := range cols {
		if c.Kind != KBool {
			cands = append(cands, c)
		}
	}
	if len(cands) == 0 {
		return "(1 = 1)"
	}
	c := cands[g.intn(len(cands))]
	op := g.pick(cmpOps)
	switch {
	case c.IsInt():
		switch g.intn(5) {
		case 0:
			return fmt.Sprintf("(%s %s %s)", c.Name, op, g.constFor(c))
		case 1:
			// col vs col (int only; string col-vs-col compares dict codes
			// on RAPID — documented divergence, never generated).
			if o := intCols(cols); len(o) > 1 {
				other := o[g.intn(len(o))]
				return fmt.Sprintf("(%s %s %s)", c.Name, op, other.Name)
			}
			return fmt.Sprintf("(%s %s %s)", c.Name, op, g.constFor(c))
		case 2:
			lo := g.intn(int(c.Hi))
			return fmt.Sprintf("(%s BETWEEN %d AND %d)", c.Name, lo, lo+g.intn(int(c.Hi)))
		case 3:
			return fmt.Sprintf("(%s IN (%s, %s, %s))", c.Name,
				g.constFor(c), g.constFor(c), g.constFor(c))
		default:
			return fmt.Sprintf("(%s %s %s)", g.intExpr(cols, 1), op, g.constFor(c))
		}
	case c.Kind == KDec:
		return fmt.Sprintf("(%s %s %s)", c.Name, op, g.constFor(c))
	case c.IsStr():
		switch g.intn(4) {
		case 0:
			eq := "="
			if g.chance(0.3) {
				eq = "<>"
			}
			return fmt.Sprintf("(%s %s %s)", c.Name, eq, g.constFor(c))
		case 1:
			w := g.pick(c.Strs)
			pat := []string{"%" + w + "%", w + "%", "%" + w, w}[g.intn(4)]
			not := ""
			if g.chance(0.25) {
				not = "NOT "
			}
			return fmt.Sprintf("(%s %sLIKE '%s')", c.Name, not, pat)
		case 2:
			return fmt.Sprintf("(%s IN (%s, %s))", c.Name, g.constFor(c), g.constFor(c))
		default:
			return fmt.Sprintf("(%s %s %s)", c.Name, g.pick([]string{"=", "<>"}), g.constFor(c))
		}
	default: // KDate
		if g.chance(0.4) {
			lo := c.Base + int64(g.intn(120))
			return fmt.Sprintf("(%s BETWEEN DATE '%s' AND DATE '%s')",
				c.Name, dateStr(lo), dateStr(lo+int64(g.intn(60))))
		}
		return fmt.Sprintf("(%s %s %s)", c.Name, op, g.constFor(c))
	}
}

// pred renders a possibly-compound predicate.
func (g *Generator) pred(cols []*Column) string {
	switch g.intn(10) {
	case 0, 1:
		return fmt.Sprintf("(%s AND %s)", g.predAtom(cols), g.predAtom(cols))
	case 2, 3:
		return fmt.Sprintf("(%s OR %s)", g.predAtom(cols), g.predAtom(cols))
	case 4:
		return fmt.Sprintf("(NOT %s)", g.predAtom(cols))
	case 5:
		// IS NULL is constant-false in this NULL-free engine; keep it live
		// inside an OR so the query still returns rows.
		return fmt.Sprintf("((%s) IS NULL OR %s)", g.intExpr(cols, 1), g.predAtom(cols))
	case 6:
		// IS NOT NULL is a tautological conjunct.
		return fmt.Sprintf("((%s) IS NOT NULL AND %s)", g.intExpr(cols, 1), g.predAtom(cols))
	default:
		return g.predAtom(cols)
	}
}

func (g *Generator) genWhere(cols []*Column) []string {
	var out []string
	n := 0
	switch r := g.rng.Float64(); {
	case r < 0.30:
		n = 0
	case r < 0.75:
		n = 1
	default:
		n = 2
	}
	for i := 0; i < n; i++ {
		out = append(out, g.pred(cols))
	}
	return out
}

// --- ORDER BY / LIMIT --------------------------------------------------------

// outItem is one select-list entry with its sortability.
type outItem struct {
	expr     string
	sortable bool
}

// genOrder renders ORDER BY over output positions. When full is requested
// (and every item is sortable) the permutation covers every position, which
// makes the output sequence engine-independent: any rows tied on all sort
// keys are fully identical.
func (g *Generator) genOrder(items []outItem, wantFull bool) (string, []SortChk, bool) {
	var sortable []int
	for i, it := range items {
		if it.sortable {
			sortable = append(sortable, i)
		}
	}
	if len(sortable) == 0 {
		return "", nil, false
	}
	full := wantFull && len(sortable) == len(items)
	n := 1 + g.intn(len(sortable))
	if full {
		n = len(items)
	}
	perm := g.rng.Perm(len(sortable))[:n]
	var keys []SortChk
	var parts []string
	for _, pi := range perm {
		pos := sortable[pi]
		desc := g.chance(0.4)
		keys = append(keys, SortChk{Pos: pos, Desc: desc})
		p := fmt.Sprintf("%d", pos+1)
		if desc {
			p += " DESC"
		}
		parts = append(parts, p)
	}
	return " ORDER BY " + strings.Join(parts, ", "), keys, full
}

// --- query classes -----------------------------------------------------------

func (g *Generator) genSimple() *Query {
	t := g.table()
	cols := colPtrs(t)
	q := &Query{Class: "simple", from: t.Name, limit: -1, scope: cols}

	wantLimit := g.chance(0.20)
	var items []outItem
	if g.chance(0.10) && !wantLimit {
		q.sel = []string{"*"}
		for _, c := range t.Cols {
			items = append(items, outItem{expr: c.Name, sortable: c.Sortable()})
		}
	} else {
		n := 1 + g.intn(4)
		for i := 0; i < n; i++ {
			if !wantLimit && g.chance(0.55) {
				c := cols[g.intn(len(cols))]
				items = append(items, outItem{expr: c.Name, sortable: c.Sortable()})
			} else {
				items = append(items, outItem{expr: g.intExpr(cols, 0), sortable: true})
			}
			q.sel = append(q.sel, items[i].expr)
		}
	}
	q.NOut = len(items)
	q.where = g.genWhere(cols)

	if wantLimit || g.chance(0.40) {
		q.order, q.SortKeys, q.FullOrder = g.genOrder(items, wantLimit)
	}
	if wantLimit && q.FullOrder {
		q.limit = g.intn(2 * (len(t.Rows) + 2))
	} else if g.chance(0.05) {
		q.limit = 0 // LIMIT 0 is bag-safe with or without a total order
	}
	return q
}

func (g *Generator) genAgg() *Query {
	t := g.table()
	cols := colPtrs(t)
	q := &Query{Class: "agg", from: t.Name, limit: -1, scope: cols}

	nGroup := g.intn(3)
	var items []outItem
	groupNames := make([]string, 0, nGroup)
	for i := 0; i < nGroup; i++ {
		c := cols[g.intn(len(cols))]
		dup := false
		for _, n := range groupNames {
			if n == c.Name {
				dup = true
			}
		}
		if dup {
			continue
		}
		groupNames = append(groupNames, c.Name)
		items = append(items, outItem{expr: c.Name, sortable: c.Sortable()})
	}

	ints := intCols(cols)
	nAgg := 1 + g.intn(3)
	for i := 0; i < nAgg; i++ {
		var a string
		switch g.intn(7) {
		case 0:
			a = "COUNT(*)"
		case 1:
			if len(ints) > 0 {
				a = fmt.Sprintf("AVG(%s)", ints[g.intn(len(ints))].Name)
			} else {
				a = "COUNT(*)"
			}
		case 2:
			// Aggregate over an arithmetic expression.
			if len(ints) > 0 {
				a = fmt.Sprintf("SUM(%s)", g.intExpr(cols, 1))
			} else {
				a = "COUNT(*)"
			}
		default:
			fn := g.pick([]string{"SUM", "MIN", "MAX"})
			var nums []*Column
			for _, c := range cols {
				if c.IsInt() || c.Kind == KDec {
					nums = append(nums, c)
				}
			}
			if len(nums) == 0 {
				a = "COUNT(*)"
			} else {
				a = fmt.Sprintf("%s(%s)", fn, nums[g.intn(len(nums))].Name)
			}
		}
		items = append(items, outItem{expr: a, sortable: true})
	}
	for _, it := range items {
		q.sel = append(q.sel, it.expr)
	}
	q.NOut = len(items)
	q.where = g.genWhere(cols)

	if len(groupNames) > 0 {
		q.tail = " GROUP BY " + strings.Join(groupNames, ", ")
		if g.chance(0.25) && len(ints) > 0 {
			q.tail += fmt.Sprintf(" HAVING %s > %d",
				g.pick([]string{"COUNT(*)", "SUM(" + ints[g.intn(len(ints))].Name + ")"}),
				g.intn(20))
		}
		if g.chance(0.35) {
			wantFull := g.chance(0.5)
			q.order, q.SortKeys, q.FullOrder = g.genOrder(items, wantFull)
			if q.FullOrder && g.chance(0.5) {
				q.limit = g.intn(12)
			}
		}
	}
	return q
}

// joinFrom draws a two- or three-table FROM over the tables in the order ti
// (at least two): an inner join, or sometimes a LEFT JOIN (then with no
// third table), on the int keys and sometimes a second int pair. It returns
// the clause and its tables.
func (g *Generator) joinFrom(ti []int) (string, []*Table) {
	left, right := g.sc.Tables[ti[0]], g.sc.Tables[ti[1]]
	kind := "JOIN"
	if g.chance(0.2) {
		kind = "LEFT JOIN"
	}
	on := fmt.Sprintf("%s = %s", left.Cols[0].Name, right.Cols[0].Name)
	if li, ri := intCols(colPtrs(left)), intCols(colPtrs(right)); g.chance(0.2) && len(li) > 1 && len(ri) > 1 {
		on += fmt.Sprintf(" AND %s = %s",
			li[g.intn(len(li))].Name, ri[g.intn(len(ri))].Name)
	}
	from := fmt.Sprintf("%s %s %s ON %s", left.Name, kind, right.Name, on)

	tables := []*Table{left, right}
	third := len(g.sc.Tables) >= 3 && kind == "JOIN" && g.chance(0.25)
	if third {
		t3 := g.sc.Tables[ti[2]]
		from += fmt.Sprintf(" JOIN %s ON %s = %s", t3.Name, right.Cols[0].Name, t3.Cols[0].Name)
		tables = append(tables, t3)
	}
	return from, tables
}

// columnsOf is every column of the tables, in table order.
func columnsOf(tables []*Table) []*Column {
	var cols []*Column
	for _, t := range tables {
		cols = append(cols, colPtrs(t)...)
	}
	return cols
}

func (g *Generator) genJoin() *Query {
	from, tables := g.joinFrom(g.rng.Perm(len(g.sc.Tables)))
	scope := columnsOf(tables)
	q := &Query{Class: "join", from: from, limit: -1, scope: scope}
	n := 1 + g.intn(4)
	var items []outItem
	for i := 0; i < n; i++ {
		c := scope[g.intn(len(scope))]
		items = append(items, outItem{expr: c.Name, sortable: c.Sortable()})
		q.sel = append(q.sel, c.Name)
	}
	q.NOut = n
	q.where = g.genWhere(scope)
	if g.chance(0.25) {
		q.order, q.SortKeys, q.FullOrder = g.genOrder(items, false)
	}
	return q
}

func (g *Generator) genSetOp() *Query {
	t := g.table()
	cols := colPtrs(t)
	n := 1 + g.intn(3)
	var sel []string
	for i := 0; i < n; i++ {
		sel = append(sel, cols[g.intn(len(cols))].Name)
	}
	list := strings.Join(sel, ", ")
	op := g.pick([]string{"UNION", "UNION ALL", "INTERSECT", "MINUS"})
	lhs := fmt.Sprintf("SELECT %s FROM %s WHERE %s", list, t.Name, g.pred(cols))
	rhs := fmt.Sprintf("SELECT %s FROM %s WHERE %s", list, t.Name, g.pred(cols))
	return &Query{
		Class: "setop", raw: lhs + " " + op + " " + rhs,
		NOut: n, limit: -1, scope: cols,
	}
}

func (g *Generator) genWindow() *Query {
	t := g.table()
	cols := colPtrs(t)
	q := &Query{Class: "window", from: t.Name, limit: -1, scope: cols}

	var items []outItem
	nPlain := 1 + g.intn(2)
	for i := 0; i < nPlain; i++ {
		c := cols[g.intn(len(cols))]
		items = append(items, outItem{expr: c.Name, sortable: c.Sortable()})
	}
	part := cols[g.intn(len(cols))]
	var sortables []*Column
	for _, c := range cols {
		if c.Sortable() {
			sortables = append(sortables, c)
		}
	}
	var win string
	ints := intCols(cols)
	// RANK/DENSE_RANK are tie-stable and SUM OVER (PARTITION BY) is
	// order-free, so all three are deterministic across engines.
	// ROW_NUMBER and running sums are not — never generated.
	switch {
	case len(ints) > 0 && g.chance(0.35):
		win = fmt.Sprintf("SUM(%s) OVER (PARTITION BY %s)",
			ints[g.intn(len(ints))].Name, part.Name)
	case len(sortables) > 0:
		fn := g.pick([]string{"RANK()", "DENSE_RANK()"})
		ob := sortables[g.intn(len(sortables))]
		desc := ""
		if g.chance(0.4) {
			desc = " DESC"
		}
		if g.chance(0.2) {
			win = fmt.Sprintf("%s OVER (ORDER BY %s%s)", fn, ob.Name, desc)
		} else {
			win = fmt.Sprintf("%s OVER (PARTITION BY %s ORDER BY %s%s)",
				fn, part.Name, ob.Name, desc)
		}
	default:
		return g.genSimple()
	}
	items = append(items, outItem{expr: win, sortable: true})
	for _, it := range items {
		q.sel = append(q.sel, it.expr)
	}
	q.NOut = len(items)
	if g.chance(0.30) {
		q.where = []string{g.predAtom(cols)}
	}
	return q
}

// genSemiJoin draws an IN / NOT IN sub-query over one table, or — half the
// time — over a FROM drawn the way genJoin draws it, on an int column of any
// of its tables: the binder places the semi or anti join on that table's
// input, under the inner joins and above any LEFT JOIN. The sub-query is a
// key scan, filtered or not, or a grouped int column.
func (g *Generator) genSemiJoin() *Query {
	ti := g.rng.Perm(len(g.sc.Tables))
	outer, inner := g.sc.Tables[ti[0]], g.sc.Tables[ti[1]]
	from, cols := outer.Name, colPtrs(outer)
	key := outer.Cols[0].Name
	if g.chance(0.5) {
		var tables []*Table
		from, tables = g.joinFrom(ti)
		cols, inner = columnsOf(tables), g.table()
		if ints := intCols(cols); g.chance(0.4) {
			key = ints[g.intn(len(ints))].Name
		} else {
			key = tables[g.intn(len(tables))].Cols[0].Name
		}
	}
	q := &Query{Class: "semijoin", from: from, limit: -1, scope: cols}

	n := 1 + g.intn(3)
	for i := 0; i < n; i++ {
		q.sel = append(q.sel, cols[g.intn(len(cols))].Name)
	}
	q.NOut = n

	sub := fmt.Sprintf("SELECT %s FROM %s", inner.Cols[0].Name, inner.Name)
	switch ints := intCols(colPtrs(inner)); {
	case g.chance(0.25):
		// Grouped on any int column: on a tray, a sub-query grouped off its
		// shard key is not node-local.
		c := ints[g.intn(len(ints))].Name
		sub = fmt.Sprintf("SELECT %s FROM %s GROUP BY %s", c, inner.Name, c)
		if g.chance(0.5) {
			sub += " HAVING COUNT(*) > 1"
		}
	case g.chance(0.5):
		sub += " WHERE " + g.predAtom(colPtrs(inner))
	}
	not := ""
	if g.chance(0.3) {
		not = "NOT "
	}
	q.where = append(q.where, fmt.Sprintf("%s %sIN (%s)", key, not, sub))
	if g.chance(0.4) {
		q.where = append(q.where, g.predAtom(cols))
	}
	return q
}
