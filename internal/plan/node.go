package plan

import (
	"fmt"
	"strings"

	"rapid/internal/coltypes"
	"rapid/internal/storage"
)

// Node is a logical plan operator. Schema() is the node's output schema.
type Node interface {
	Schema() []Field
	Children() []Node
	String() string
}

// Scan reads a base table snapshot (columns in Cols order).
type Scan struct {
	Table  *storage.Table
	SCN    uint64
	Cols   []int // table column indices, in output order
	fields []Field
}

// NewScan builds a scan of the given table columns (nil = all).
func NewScan(t *storage.Table, scn uint64, cols []int) *Scan {
	if cols == nil {
		cols = make([]int, t.Schema().NumCols())
		for i := range cols {
			cols[i] = i
		}
	}
	fields := make([]Field, len(cols))
	for i, c := range cols {
		def := t.Schema().Col(c)
		fields[i] = Field{Name: def.Name, Type: def.Type, Dict: t.Meta(c).Dict}
	}
	return &Scan{Table: t, SCN: scn, Cols: cols, fields: fields}
}

func (n *Scan) Schema() []Field  { return n.fields }
func (n *Scan) Children() []Node { return nil }
func (n *Scan) String() string   { return fmt.Sprintf("Scan(%s)", n.Table.Name()) }

// Filter applies a predicate.
type Filter struct {
	Input Node
	Pred  Pred
}

func (n *Filter) Schema() []Field  { return n.Input.Schema() }
func (n *Filter) Children() []Node { return []Node{n.Input} }
func (n *Filter) String() string   { return fmt.Sprintf("Filter(%s)", n.Pred) }

// Project computes output expressions.
type Project struct {
	Input Node
	Exprs []Expr
	Names []string
}

func (n *Project) Schema() []Field {
	fields := make([]Field, len(n.Exprs))
	for i, e := range n.Exprs {
		name := ""
		if i < len(n.Names) {
			name = n.Names[i]
		}
		if name == "" {
			name = e.String()
		}
		fields[i] = Field{Name: name, Type: e.Type()}
		if cr, ok := e.(*ColRef); ok {
			fields[i].Dict = cr.Dict
		}
	}
	return fields
}
func (n *Project) Children() []Node { return []Node{n.Input} }
func (n *Project) String() string   { return fmt.Sprintf("Project(%d exprs)", len(n.Exprs)) }

// JoinType selects the join semantics (§6.5).
type JoinType int

const (
	InnerJoin     JoinType = iota
	SemiJoin               // probe rows with at least one build match
	AntiJoin               // probe rows with no build match
	LeftOuterJoin          // all probe rows; unmatched get zero build payload
)

// Join is an equi-join. Left is the probe/outer side, Right the build side
// (the host optimizer has fixed the order; QComp may still swap for size).
// Keys pair Left and Right columns. Out lists the columns the join outputs,
// as positions in Left's columns followed by Right's (a semi or anti join
// has only Left's); nil outputs all of them. Live sets it to the columns
// read above the join.
type Join struct {
	Type        JoinType
	Left, Right Node
	LeftKeys    []int
	RightKeys   []int
	Out         []int
}

func (n *Join) Schema() []Field {
	fs := n.Left.Schema()
	if n.Type != SemiJoin && n.Type != AntiJoin {
		fs = append(append([]Field(nil), fs...), n.Right.Schema()...)
	}
	if n.Out == nil {
		return fs
	}
	out := make([]Field, len(n.Out))
	for i, c := range n.Out {
		out[i] = fs[c]
	}
	return out
}
func (n *Join) Children() []Node { return []Node{n.Left, n.Right} }
func (n *Join) String() string {
	if n.Out != nil {
		return fmt.Sprintf("Join(type=%d, keys=%v=%v, out=%v)", n.Type, n.LeftKeys, n.RightKeys, n.Out)
	}
	return fmt.Sprintf("Join(type=%d, keys=%v=%v)", n.Type, n.LeftKeys, n.RightKeys)
}

// AggKind is the SQL aggregate; compilers lower it to ops.AggKind, AVG as SUM/COUNT.
type AggKind int

const (
	Sum AggKind = iota
	Min
	Max
	Count
	CountStar
	Avg
)

func (k AggKind) String() string {
	return [...]string{"SUM", "MIN", "MAX", "COUNT", "COUNT(*)", "AVG"}[k]
}

// AggExpr is one aggregate output.
type AggExpr struct {
	Kind AggKind
	Arg  Expr // nil for COUNT(*)
	Name string
}

// Type returns the aggregate's result type.
func (a *AggExpr) Type() coltypes.Type {
	switch a.Kind {
	case Count, CountStar:
		return coltypes.Int()
	case Avg:
		s := int8(0)
		if a.Arg != nil {
			s = scaleOf(a.Arg.Type())
		}
		return coltypes.Decimal(s + 2)
	default:
		if a.Arg == nil {
			return coltypes.Int()
		}
		return a.Arg.Type()
	}
}

// GroupBy aggregates with optional grouping keys.
type GroupBy struct {
	Input Node
	Keys  []Expr // group-by expressions (ColRefs after normalization)
	Aggs  []AggExpr
}

func (n *GroupBy) Schema() []Field {
	fields := make([]Field, 0, len(n.Keys)+len(n.Aggs))
	in := n.Input.Schema()
	for _, k := range n.Keys {
		f := Field{Name: k.String(), Type: k.Type()}
		if cr, ok := k.(*ColRef); ok {
			if cr.Idx < len(in) {
				f = in[cr.Idx]
			}
			if cr.Name != "" {
				f.Name = cr.Name
			}
		}
		fields = append(fields, f)
	}
	for _, a := range n.Aggs {
		fields = append(fields, Field{Name: a.Name, Type: a.Type()})
	}
	return fields
}
func (n *GroupBy) Children() []Node { return []Node{n.Input} }
func (n *GroupBy) String() string {
	return fmt.Sprintf("GroupBy(keys=%d, aggs=%d)", len(n.Keys), len(n.Aggs))
}

// SortItem is one ORDER BY term over the input schema.
type SortItem struct {
	Col  int
	Desc bool
}

// Sort orders rows.
type Sort struct {
	Input Node
	Keys  []SortItem
}

func (n *Sort) Schema() []Field  { return n.Input.Schema() }
func (n *Sort) Children() []Node { return []Node{n.Input} }
func (n *Sort) String() string   { return fmt.Sprintf("Sort(%v)", n.Keys) }

// Limit keeps the first K rows (combined with Sort it becomes Top-K).
type Limit struct {
	Input Node
	K     int
}

func (n *Limit) Schema() []Field  { return n.Input.Schema() }
func (n *Limit) Children() []Node { return []Node{n.Input} }
func (n *Limit) String() string   { return fmt.Sprintf("Limit(%d)", n.K) }

// SetOpKind selects a set operation (§5.4).
type SetOpKind int

const (
	Union SetOpKind = iota
	UnionAll
	Intersect
	Minus
)

// SetOp combines two inputs.
type SetOp struct {
	Kind        SetOpKind
	Left, Right Node
}

func (n *SetOp) Schema() []Field  { return n.Left.Schema() }
func (n *SetOp) Children() []Node { return []Node{n.Left, n.Right} }
func (n *SetOp) String() string   { return fmt.Sprintf("SetOp(%d)", n.Kind) }

// WindowFunc selects a window function (§5.4).
type WindowFunc int

const (
	RowNumber WindowFunc = iota
	Rank
	DenseRank
	CumSum      // running SUM(value) within the partition
	WinTotalSum // partition-total SUM(value) on every row
)

// Window appends a window-function column.
type Window struct {
	Input       Node
	Func        WindowFunc
	PartitionBy []int
	OrderBy     []SortItem
	ValueCol    int
	Name        string
}

func (n *Window) Schema() []Field {
	name := n.Name
	if name == "" {
		name = "window"
	}
	return append(append([]Field(nil), n.Input.Schema()...), Field{Name: name, Type: coltypes.Int()})
}
func (n *Window) Children() []Node { return []Node{n.Input} }
func (n *Window) String() string   { return fmt.Sprintf("Window(f=%d)", n.Func) }

// Format renders a plan tree for debugging and EXPLAIN output.
func Format(n Node) string {
	var sb strings.Builder
	var walk func(Node, int)
	walk = func(n Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.String())
		sb.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return sb.String()
}
