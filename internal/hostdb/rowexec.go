package hostdb

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"rapid/internal/coltypes"
	"rapid/internal/encoding"
	"rapid/internal/plan"
)

// The System X execution engine (paper §3.2): pull-based, row-at-a-time
// iterators implementing allocate()/start()/fetch()/close()/release().
// This is the architecture RAPID's vectorized columnar engine is compared
// against in the software-only experiment (Fig 16): interpretation overhead
// per row, hash joins through generic maps, no DMEM locality.

// Iterator is the Volcano operator interface.
type Iterator interface {
	Allocate()
	Start() error
	Fetch() ([]int64, bool, error)
	Close()
	Release()
}

// BuildIterator compiles a logical plan into a host iterator tree. The
// database resolves plan.Scan nodes to its row tables by name.
func (db *Database) BuildIterator(n plan.Node) (Iterator, error) {
	switch node := n.(type) {
	case *plan.Scan:
		t, err := db.Table(node.Table.Name())
		if err != nil {
			return nil, err
		}
		return &scanIter{t: t, cols: node.Cols}, nil
	case *plan.Filter:
		in, err := db.BuildIterator(node.Input)
		if err != nil {
			return nil, err
		}
		return &filterIter{in: in, pred: node.Pred, fields: node.Input.Schema()}, nil
	case *plan.Project:
		in, err := db.BuildIterator(node.Input)
		if err != nil {
			return nil, err
		}
		return &projectIter{in: in, exprs: node.Exprs}, nil
	case *plan.Join:
		l, err := db.BuildIterator(node.Left)
		if err != nil {
			return nil, err
		}
		r, err := db.BuildIterator(node.Right)
		if err != nil {
			return nil, err
		}
		return &joinIter{
			typ: node.Type, left: l, right: r,
			lk: node.LeftKeys, rk: node.RightKeys, out: node.Out,
			rightWidth: len(node.Right.Schema()),
		}, nil
	case *plan.GroupBy:
		in, err := db.BuildIterator(node.Input)
		if err != nil {
			return nil, err
		}
		return &groupIter{in: in, keys: node.Keys, aggs: node.Aggs}, nil
	case *plan.Sort:
		in, err := db.BuildIterator(node.Input)
		if err != nil {
			return nil, err
		}
		return &sortIter{in: in, keys: node.Keys, fields: node.Input.Schema()}, nil
	case *plan.Limit:
		in, err := db.BuildIterator(node.Input)
		if err != nil {
			return nil, err
		}
		return &limitIter{in: in, k: node.K}, nil
	case *plan.SetOp:
		l, err := db.BuildIterator(node.Left)
		if err != nil {
			return nil, err
		}
		r, err := db.BuildIterator(node.Right)
		if err != nil {
			return nil, err
		}
		return &setopIter{left: l, right: r, kind: node.Kind}, nil
	case *plan.Window:
		in, err := db.BuildIterator(node.Input)
		if err != nil {
			return nil, err
		}
		return &windowIter{in: in, spec: node}, nil
	}
	return nil, fmt.Errorf("hostdb: unsupported plan node %T", n)
}

// Drain runs an iterator to completion through the full protocol.
func Drain(it Iterator) ([][]int64, error) {
	return DrainCtx(context.Background(), it)
}

// drainCheckRows is how many rows DrainCtx fetches between cancellation
// checks — the host engine's analogue of the QEF's per-tile check.
const drainCheckRows = 1024

// DrainCtx is Drain observing a context: a canceled or expired ctx stops the
// row loop within drainCheckRows rows and returns ctx.Err().
func DrainCtx(ctx context.Context, it Iterator) ([][]int64, error) {
	it.Allocate()
	if err := it.Start(); err != nil {
		return nil, err
	}
	var out [][]int64
	for {
		if len(out)%drainCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		row, ok, err := it.Fetch()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, row)
	}
	it.Close()
	it.Release()
	return out, nil
}

// --- scan --------------------------------------------------------------------

type scanIter struct {
	t    *HostTable
	cols []int
	pos  int
}

func (s *scanIter) Allocate()    {}
func (s *scanIter) Close()       {}
func (s *scanIter) Release()     {}
func (s *scanIter) Start() error { s.pos = 0; return nil }

func (s *scanIter) Fetch() ([]int64, bool, error) {
	s.t.mu.RLock()
	defer s.t.mu.RUnlock()
	for s.pos < len(s.t.rows) {
		src := s.t.rows[s.pos]
		s.pos++
		if src == nil {
			continue // tombstone
		}
		row := make([]int64, len(s.cols))
		for i, c := range s.cols {
			row[i] = src[c]
		}
		return row, true, nil
	}
	return nil, false, nil
}

// --- expression / predicate interpretation ------------------------------------

func scaleOfT(t coltypes.Type) int8 {
	if t.Kind == coltypes.KindDecimal {
		return t.Scale
	}
	return 0
}

// evalExpr interprets e over a row; the result carries scale(e.Type()).
func evalExpr(e plan.Expr, row []int64) int64 {
	switch ex := e.(type) {
	case *plan.ColRef:
		return row[ex.Idx]
	case *plan.Const:
		return ex.Val
	case *plan.Arith:
		l := evalExpr(ex.L, row)
		r := evalExpr(ex.R, row)
		ls, rs := scaleOfT(ex.L.Type()), scaleOfT(ex.R.Type())
		switch ex.Op {
		case plan.Add, plan.Sub:
			target := scaleOfT(ex.T)
			l = rescaleVal(l, ls, target)
			r = rescaleVal(r, rs, target)
			if ex.Op == plan.Add {
				return l + r
			}
			return l - r
		case plan.Mul:
			return l * r
		default: // Div at DivScale
			if r == 0 {
				return 0
			}
			adj := int(plan.DivScale) - int(ls) + int(rs)
			switch {
			case adj > 0:
				return l * encoding.Pow10(adj) / r
			case adj < 0:
				return l / encoding.Pow10(-adj) / r
			default:
				return l / r
			}
		}
	case *plan.CaseExpr:
		var arm plan.Expr
		if evalPredRow(ex.Cond, row, nil) {
			arm = ex.Then
		} else {
			arm = ex.Else
		}
		v := evalExpr(arm, row)
		return rescaleVal(v, scaleOfT(arm.Type()), scaleOfT(ex.T))
	}
	panic(fmt.Sprintf("hostdb: unsupported expression %T", e))
}

func rescaleVal(v int64, from, to int8) int64 {
	switch {
	case from == to:
		return v
	case to > from:
		return v * encoding.Pow10(int(to-from))
	default:
		return v / encoding.Pow10(int(from-to))
	}
}

// dictVal decodes a dictionary code, rendering out-of-range codes as the
// empty string. In the NULL-free engine a left-outer join pads unmatched
// probe rows with code 0, which an empty build-side dictionary cannot
// decode; the padding compares like ” everywhere.
func dictVal(d *encoding.Dict, code int64) string {
	if code < 0 || code >= int64(d.Len()) {
		return ""
	}
	return d.Value(int32(code))
}

// strOf renders a string-typed expression's value for comparisons.
func strOf(e plan.Expr, row []int64) (string, bool) {
	switch ex := e.(type) {
	case *plan.ColRef:
		if ex.T.Kind == coltypes.KindString && ex.Dict != nil {
			return dictVal(ex.Dict, row[ex.Idx]), true
		}
	case *plan.Const:
		if ex.T.Kind == coltypes.KindString {
			return ex.Str, true
		}
	}
	return "", false
}

func isStringExpr(e plan.Expr) bool { return e.Type().Kind == coltypes.KindString }

// evalPredRow interprets a predicate over a row. fields is unused but kept
// for future schema-sensitive predicates.
func evalPredRow(p plan.Pred, row []int64, fields []plan.Field) bool {
	switch pr := p.(type) {
	case *plan.Cmp:
		if isStringExpr(pr.L) || isStringExpr(pr.R) {
			ls, lok := strOf(pr.L, row)
			rs, rok := strOf(pr.R, row)
			if !lok || !rok {
				return false
			}
			return cmpStrings(pr.Op, ls, rs)
		}
		ls, rs := scaleOfT(pr.L.Type()), scaleOfT(pr.R.Type())
		target := ls
		if rs > target {
			target = rs
		}
		l := rescaleVal(evalExpr(pr.L, row), ls, target)
		r := rescaleVal(evalExpr(pr.R, row), rs, target)
		return cmpInts(pr.Op, l, r)
	case *plan.BetweenPred:
		s := scaleOfT(pr.E.Type())
		v := evalExpr(pr.E, row)
		lo := rescaleVal(evalExpr(pr.Lo, row), scaleOfT(pr.Lo.Type()), s)
		hi := rescaleVal(evalExpr(pr.Hi, row), scaleOfT(pr.Hi.Type()), s)
		return v >= lo && v <= hi
	case *plan.InPred:
		if isStringExpr(pr.E) {
			s, ok := strOf(pr.E, row)
			if !ok {
				return false
			}
			for _, c := range pr.List {
				if c.Str == s {
					return true
				}
			}
			return false
		}
		v := evalExpr(pr.E, row)
		s := scaleOfT(pr.E.Type())
		for _, c := range pr.List {
			if cv, ok := (encoding.Decimal{Unscaled: c.Val, Scale: scaleOfT(c.T)}).Rescale(s); ok && cv == v {
				return true
			}
		}
		return false
	case *plan.LikePred:
		s, ok := strOf(pr.E, row)
		if !ok {
			return false
		}
		var m bool
		switch pr.Kind {
		case plan.LikePrefix:
			m = strings.HasPrefix(s, pr.Pattern)
		case plan.LikeSuffix:
			m = strings.HasSuffix(s, pr.Pattern)
		case plan.LikeContains:
			m = strings.Contains(s, pr.Pattern)
		default:
			m = s == pr.Pattern
		}
		return m != pr.Negate
	case *plan.AndPred:
		for _, s := range pr.Preds {
			if !evalPredRow(s, row, fields) {
				return false
			}
		}
		return true
	case *plan.OrPred:
		for _, s := range pr.Preds {
			if evalPredRow(s, row, fields) {
				return true
			}
		}
		return false
	case *plan.NotPred:
		return !evalPredRow(pr.P, row, fields)
	}
	panic(fmt.Sprintf("hostdb: unsupported predicate %T", p))
}

func cmpInts(op plan.CmpOp, a, b int64) bool {
	switch op {
	case plan.EQ:
		return a == b
	case plan.NE:
		return a != b
	case plan.LT:
		return a < b
	case plan.LE:
		return a <= b
	case plan.GT:
		return a > b
	default:
		return a >= b
	}
}

func cmpStrings(op plan.CmpOp, a, b string) bool {
	switch op {
	case plan.EQ:
		return a == b
	case plan.NE:
		return a != b
	case plan.LT:
		return a < b
	case plan.LE:
		return a <= b
	case plan.GT:
		return a > b
	default:
		return a >= b
	}
}

// --- filter / project ----------------------------------------------------------

type filterIter struct {
	in     Iterator
	pred   plan.Pred
	fields []plan.Field
}

func (f *filterIter) Allocate()    { f.in.Allocate() }
func (f *filterIter) Start() error { return f.in.Start() }
func (f *filterIter) Close()       { f.in.Close() }
func (f *filterIter) Release()     { f.in.Release() }

func (f *filterIter) Fetch() ([]int64, bool, error) {
	for {
		row, ok, err := f.in.Fetch()
		if !ok || err != nil {
			return nil, false, err
		}
		if evalPredRow(f.pred, row, f.fields) {
			return row, true, nil
		}
	}
}

type projectIter struct {
	in    Iterator
	exprs []plan.Expr
}

func (p *projectIter) Allocate()    { p.in.Allocate() }
func (p *projectIter) Start() error { return p.in.Start() }
func (p *projectIter) Close()       { p.in.Close() }
func (p *projectIter) Release()     { p.in.Release() }

func (p *projectIter) Fetch() ([]int64, bool, error) {
	row, ok, err := p.in.Fetch()
	if !ok || err != nil {
		return nil, false, err
	}
	out := make([]int64, len(p.exprs))
	for i, e := range p.exprs {
		out[i] = evalExpr(e, row)
	}
	return out, true, nil
}

// --- join ----------------------------------------------------------------------

type joinIter struct {
	typ        plan.JoinType
	left       Iterator
	right      Iterator
	lk, rk     []int
	out        []int // the plan's Out: the output columns of left ++ right
	rightWidth int

	table   map[string][][]int64
	pending [][]int64
}

func (j *joinIter) Allocate() {
	j.left.Allocate()
	j.right.Allocate()
}

func (j *joinIter) Start() error {
	if err := j.left.Start(); err != nil {
		return err
	}
	// Build the hash table on the right input.
	rows, err := Drain(j.right)
	if err != nil {
		return err
	}
	j.table = make(map[string][][]int64)
	for _, r := range rows {
		k := joinKey(r, j.rk)
		j.table[k] = append(j.table[k], r)
	}
	return nil
}

func joinKey(row []int64, cols []int) string {
	var sb strings.Builder
	for _, c := range cols {
		v := row[c]
		for b := 0; b < 8; b++ {
			sb.WriteByte(byte(v >> (8 * b)))
		}
	}
	return sb.String()
}

func (j *joinIter) Fetch() ([]int64, bool, error) {
	for {
		if len(j.pending) > 0 {
			out := j.pending[0]
			j.pending = j.pending[1:]
			return out, true, nil
		}
		lrow, ok, err := j.left.Fetch()
		if !ok || err != nil {
			return nil, false, err
		}
		matches := j.table[joinKey(lrow, j.lk)]
		switch j.typ {
		case plan.SemiJoin:
			if len(matches) > 0 {
				return j.project(lrow, nil), true, nil
			}
		case plan.AntiJoin:
			if len(matches) == 0 {
				return j.project(lrow, nil), true, nil
			}
		case plan.LeftOuterJoin:
			if len(matches) == 0 {
				return j.project(lrow, make([]int64, j.rightWidth)), true, nil
			}
			for _, m := range matches {
				j.pending = append(j.pending, j.project(lrow, m))
			}
		default:
			for _, m := range matches {
				j.pending = append(j.pending, j.project(lrow, m))
			}
		}
	}
}

// project is the output row of a left row and its right match (nil for a
// semi or anti join): the columns of left ++ right that Out lists.
func (j *joinIter) project(lrow, rrow []int64) []int64 {
	if j.out == nil {
		if rrow == nil {
			return lrow
		}
		return append(append([]int64(nil), lrow...), rrow...)
	}
	row := make([]int64, len(j.out))
	for i, c := range j.out {
		if c < len(lrow) {
			row[i] = lrow[c]
		} else {
			row[i] = rrow[c-len(lrow)]
		}
	}
	return row
}

func (j *joinIter) Close() {
	j.left.Close()
	j.table = nil
}

func (j *joinIter) Release() {
	j.left.Release()
	j.right.Release()
}

// --- group by --------------------------------------------------------------------

type groupIter struct {
	in   Iterator
	keys []plan.Expr
	aggs []plan.AggExpr

	out [][]int64
	pos int
}

type hostAgg struct {
	sum, min, max, count int64
}

func (g *groupIter) Allocate() { g.in.Allocate() }

func (g *groupIter) Start() error {
	rows, err := Drain(g.in)
	if err != nil {
		return err
	}
	type groupState struct {
		keyVals []int64
		aggs    []hostAgg
	}
	groups := map[string]*groupState{}
	var order []string
	for _, row := range rows {
		keyVals := make([]int64, len(g.keys))
		for i, k := range g.keys {
			keyVals[i] = evalExpr(k, row)
		}
		kk := joinKey(keyVals, allCols(len(keyVals)))
		st, ok := groups[kk]
		if !ok {
			st = &groupState{keyVals: keyVals, aggs: make([]hostAgg, len(g.aggs))}
			for i := range st.aggs {
				st.aggs[i].min = 1<<63 - 1
				st.aggs[i].max = -(1 << 63)
			}
			groups[kk] = st
			order = append(order, kk)
		}
		for i, a := range g.aggs {
			ag := &st.aggs[i]
			if a.Kind == plan.CountStar {
				ag.count++
				continue
			}
			v := evalExpr(a.Arg, row)
			ag.sum += v
			ag.count++
			if v < ag.min {
				ag.min = v
			}
			if v > ag.max {
				ag.max = v
			}
		}
	}
	// Emit in first-seen order: keys then agg values.
	g.out = nil
	for _, kk := range order {
		st := groups[kk]
		row := append([]int64(nil), st.keyVals...)
		for i, a := range g.aggs {
			ag := st.aggs[i]
			switch a.Kind {
			case plan.Sum:
				row = append(row, ag.sum)
			case plan.Min:
				row = append(row, ag.min)
			case plan.Max:
				row = append(row, ag.max)
			case plan.Avg:
				if ag.count == 0 {
					row = append(row, 0)
				} else {
					row = append(row, ag.sum*100/ag.count)
				}
			default:
				row = append(row, ag.count)
			}
		}
		g.out = append(g.out, row)
	}
	if len(g.keys) == 0 && len(g.out) == 0 {
		// Scalar aggregate over empty input still yields one row.
		row := make([]int64, len(g.aggs))
		g.out = append(g.out, row)
	}
	g.pos = 0
	return nil
}

func allCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func (g *groupIter) Fetch() ([]int64, bool, error) {
	if g.pos >= len(g.out) {
		return nil, false, nil
	}
	g.pos++
	return g.out[g.pos-1], true, nil
}

func (g *groupIter) Close()   { g.out = nil }
func (g *groupIter) Release() { g.in.Release() }

// --- sort / limit ------------------------------------------------------------------

type sortIter struct {
	in     Iterator
	keys   []plan.SortItem
	fields []plan.Field

	out [][]int64
	pos int
}

func (s *sortIter) Allocate() { s.in.Allocate() }

func (s *sortIter) Start() error {
	rows, err := Drain(s.in)
	if err != nil {
		return err
	}
	// Dictionary columns sort lexicographically.
	sort.SliceStable(rows, func(a, b int) bool {
		for _, k := range s.keys {
			var less, eq bool
			if k.Col < len(s.fields) && s.fields[k.Col].Type.Kind == coltypes.KindString && s.fields[k.Col].Dict != nil {
				d := s.fields[k.Col].Dict
				av, bv := dictVal(d, rows[a][k.Col]), dictVal(d, rows[b][k.Col])
				less, eq = av < bv, av == bv
			} else {
				av, bv := rows[a][k.Col], rows[b][k.Col]
				less, eq = av < bv, av == bv
			}
			if eq {
				continue
			}
			if k.Desc {
				return !less
			}
			return less
		}
		return false
	})
	s.out = rows
	s.pos = 0
	return nil
}

func (s *sortIter) Fetch() ([]int64, bool, error) {
	if s.pos >= len(s.out) {
		return nil, false, nil
	}
	s.pos++
	return s.out[s.pos-1], true, nil
}

func (s *sortIter) Close()   { s.out = nil }
func (s *sortIter) Release() { s.in.Release() }

type limitIter struct {
	in   Iterator
	k    int
	seen int
}

func (l *limitIter) Allocate()    { l.in.Allocate() }
func (l *limitIter) Start() error { l.seen = 0; return l.in.Start() }
func (l *limitIter) Close()       { l.in.Close() }
func (l *limitIter) Release()     { l.in.Release() }

func (l *limitIter) Fetch() ([]int64, bool, error) {
	if l.seen >= l.k {
		return nil, false, nil
	}
	row, ok, err := l.in.Fetch()
	if !ok || err != nil {
		return nil, false, err
	}
	l.seen++
	return row, true, nil
}

// --- set operations -----------------------------------------------------------------

type setopIter struct {
	left, right Iterator
	kind        plan.SetOpKind

	out [][]int64
	pos int
}

func (s *setopIter) Allocate() {
	s.left.Allocate()
	s.right.Allocate()
}

func (s *setopIter) Start() error {
	lrows, err := Drain(s.left)
	if err != nil {
		return err
	}
	rrows, err := Drain(s.right)
	if err != nil {
		return err
	}
	if s.kind == plan.UnionAll {
		s.out = append(lrows, rrows...)
		return nil
	}
	rset := map[string]bool{}
	width := 0
	if len(lrows) > 0 {
		width = len(lrows[0])
	} else if len(rrows) > 0 {
		width = len(rrows[0])
	}
	for _, r := range rrows {
		rset[joinKey(r, allCols(width))] = true
	}
	emitted := map[string]bool{}
	for _, r := range lrows {
		k := joinKey(r, allCols(width))
		if emitted[k] {
			continue
		}
		inB := rset[k]
		keep := false
		switch s.kind {
		case plan.Union:
			keep = true
		case plan.Intersect:
			keep = inB
		case plan.Minus:
			keep = !inB
		}
		if keep {
			emitted[k] = true
			s.out = append(s.out, r)
		}
	}
	if s.kind == plan.Union {
		for _, r := range rrows {
			k := joinKey(r, allCols(width))
			if !emitted[k] {
				emitted[k] = true
				s.out = append(s.out, r)
			}
		}
	}
	return nil
}

func (s *setopIter) Fetch() ([]int64, bool, error) {
	if s.pos >= len(s.out) {
		return nil, false, nil
	}
	s.pos++
	return s.out[s.pos-1], true, nil
}

func (s *setopIter) Close() { s.out = nil }

func (s *setopIter) Release() {
	s.left.Release()
	s.right.Release()
}

// --- window ------------------------------------------------------------------------

type windowIter struct {
	in   Iterator
	spec *plan.Window

	out [][]int64
	pos int
}

func (w *windowIter) Allocate() { w.in.Allocate() }

func (w *windowIter) Start() error {
	rows, err := Drain(w.in)
	if err != nil {
		return err
	}
	// Sort by (partition, order).
	keyCols := append([]int(nil), w.spec.PartitionBy...)
	type ord struct {
		col  int
		desc bool
	}
	var ords []ord
	for _, o := range w.spec.OrderBy {
		ords = append(ords, ord{o.Col, o.Desc})
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for _, c := range keyCols {
			if rows[a][c] != rows[b][c] {
				return rows[a][c] < rows[b][c]
			}
		}
		for _, o := range ords {
			av, bv := rows[a][o.col], rows[b][o.col]
			if av != bv {
				if o.desc {
					return av > bv
				}
				return av < bv
			}
		}
		return false
	})
	samePart := func(a, b []int64) bool {
		for _, c := range keyCols {
			if a[c] != b[c] {
				return false
			}
		}
		return true
	}
	sameOrder := func(a, b []int64) bool {
		for _, o := range ords {
			if a[o.col] != b[o.col] {
				return false
			}
		}
		return true
	}
	start := 0
	n := len(rows)
	for start < n {
		end := start + 1
		for end < n && samePart(rows[start], rows[end]) {
			end++
		}
		var run int64
		var rank, dense int64 = 1, 1
		var total int64
		if w.spec.Func == plan.WinTotalSum {
			for i := start; i < end; i++ {
				total += rows[i][w.spec.ValueCol]
			}
		}
		for i := start; i < end; i++ {
			var v int64
			switch w.spec.Func {
			case plan.RowNumber:
				v = int64(i - start + 1)
			case plan.Rank:
				if i > start && !sameOrder(rows[i-1], rows[i]) {
					rank = int64(i - start + 1)
				}
				v = rank
			case plan.DenseRank:
				if i > start && !sameOrder(rows[i-1], rows[i]) {
					dense++
				}
				v = dense
			case plan.CumSum:
				run += rows[i][w.spec.ValueCol]
				v = run
			case plan.WinTotalSum:
				v = total
			}
			rows[i] = append(rows[i], v)
		}
		start = end
	}
	w.out = rows
	return nil
}

func (w *windowIter) Fetch() ([]int64, bool, error) {
	if w.pos >= len(w.out) {
		return nil, false, nil
	}
	w.pos++
	return w.out[w.pos-1], true, nil
}

func (w *windowIter) Close()   { w.out = nil }
func (w *windowIter) Release() { w.in.Release() }
