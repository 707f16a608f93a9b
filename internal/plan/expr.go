// Package plan defines the typed logical query plan shared by the two
// execution engines of this repository: RAPID's QComp (internal/qcomp)
// compiles it to the vectorized columnar engine, and System X's row engine
// (internal/hostdb) interprets it Volcano-style. The host database's logical
// optimization (semantic analysis, normalization, constant folding) has
// already happened by the time a plan reaches either engine (paper §3.1).
package plan

import (
	"fmt"

	"rapid/internal/coltypes"
	"rapid/internal/encoding"
)

// Field describes one column of a node's output schema.
type Field struct {
	Name string
	Type coltypes.Type
	Dict *encoding.Dict // string columns carry their dictionary
}

// Expr is a typed scalar expression. All type/scale resolution happens at
// plan construction; engines execute without further analysis.
type Expr interface {
	Type() coltypes.Type
	String() string
}

// ColRef references column Idx of the node's input schema.
type ColRef struct {
	Idx  int
	Name string
	T    coltypes.Type
	Dict *encoding.Dict
}

func (e *ColRef) Type() coltypes.Type { return e.T }
func (e *ColRef) String() string {
	if e.Name != "" {
		return e.Name
	}
	return fmt.Sprintf("$%d", e.Idx)
}

// Const is a literal, already encoded to the physical integer domain
// (decimal at its scale, date as day number, string as a *value* — strings
// are bound to dictionary codes per table column at compile time).
type Const struct {
	T   coltypes.Type
	Val int64  // numeric/date/bool literals
	Str string // string literal (bound later against a dict)
}

func (e *Const) Type() coltypes.Type { return e.T }
func (e *Const) String() string {
	if e.T.Kind == coltypes.KindString {
		return fmt.Sprintf("'%s'", e.Str)
	}
	if e.T.Kind == coltypes.KindDecimal {
		return encoding.Decimal{Unscaled: e.Val, Scale: e.T.Scale}.String()
	}
	return fmt.Sprintf("%d", e.Val)
}

// ArithOp is an arithmetic operator.
type ArithOp int

const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

func (op ArithOp) String() string {
	return [...]string{"+", "-", "*", "/"}[op]
}

// DivScale is the result scale of decimal division.
const DivScale int8 = 4

// Arith is a binary arithmetic expression. T carries the resolved result
// scale: Add/Sub use max(scale), Mul sums scales, Div produces DivScale.
type Arith struct {
	Op   ArithOp
	L, R Expr
	T    coltypes.Type
}

func (e *Arith) Type() coltypes.Type { return e.T }
func (e *Arith) String() string      { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }

// NewArith builds an arithmetic node, resolving the result type.
func NewArith(op ArithOp, l, r Expr) (*Arith, error) {
	lt, rt := l.Type(), r.Type()
	if !numericOrDate(lt) || !numericOrDate(rt) {
		return nil, fmt.Errorf("plan: arithmetic over non-numeric types %v, %v", lt, rt)
	}
	t := coltypes.Int()
	ls, rs := scaleOf(lt), scaleOf(rt)
	switch op {
	case Add, Sub:
		s := ls
		if rs > s {
			s = rs
		}
		if s > 0 {
			t = coltypes.Decimal(s)
		}
		// Date +/- integer stays a date.
		if lt.Kind == coltypes.KindDate && rt.Kind == coltypes.KindInt {
			t = coltypes.Date()
		}
	case Mul:
		if s := ls + rs; s > 0 {
			t = coltypes.Decimal(s)
		}
	case Div:
		t = coltypes.Decimal(DivScale)
	}
	return &Arith{Op: op, L: l, R: r, T: t}, nil
}

func numericOrDate(t coltypes.Type) bool {
	return t.Numeric() || t.Kind == coltypes.KindDate || t.Kind == coltypes.KindBool
}

func scaleOf(t coltypes.Type) int8 {
	if t.Kind == coltypes.KindDecimal {
		return t.Scale
	}
	return 0
}

// CmpOp is a comparison operator.
type CmpOp int

const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (op CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[op]
}

// Swap returns the operator with operand order reversed (a op b == b Swap(op) a).
func (op CmpOp) Swap() CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default:
		return op
	}
}

// Pred is a boolean predicate.
type Pred interface {
	String() string
}

// Cmp compares two expressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

func (p *Cmp) String() string { return fmt.Sprintf("%s %s %s", p.L, p.Op, p.R) }

// BetweenPred is lo <= e <= hi.
type BetweenPred struct {
	E      Expr
	Lo, Hi Expr
}

func (p *BetweenPred) String() string {
	return fmt.Sprintf("%s BETWEEN %s AND %s", p.E, p.Lo, p.Hi)
}

// InPred is e IN (list of constants).
type InPred struct {
	E    Expr
	List []*Const
}

func (p *InPred) String() string { return fmt.Sprintf("%s IN (...%d)", p.E, len(p.List)) }

// LikePred is a string pattern match on a dictionary column. Patterns are
// classified at parse time.
type LikeKind int

const (
	LikePrefix   LikeKind = iota // 'abc%'
	LikeSuffix                   // '%abc'
	LikeContains                 // '%abc%'
	LikeExact                    // no wildcard
)

type LikePred struct {
	E       Expr
	Kind    LikeKind
	Pattern string // wildcard-free needle
	Negate  bool
}

func (p *LikePred) String() string {
	op := "LIKE"
	if p.Negate {
		op = "NOT LIKE"
	}
	return fmt.Sprintf("%s %s '%s'(kind=%d)", p.E, op, p.Pattern, p.Kind)
}

// AndPred / OrPred / NotPred combine predicates.
type AndPred struct{ Preds []Pred }
type OrPred struct{ Preds []Pred }
type NotPred struct{ P Pred }

func (p *AndPred) String() string { return joinPredStr(p.Preds, " AND ") }
func (p *OrPred) String() string  { return joinPredStr(p.Preds, " OR ") }
func (p *NotPred) String() string { return fmt.Sprintf("NOT (%s)", p.P) }

func joinPredStr(ps []Pred, sep string) string {
	s := "("
	for i, p := range ps {
		if i > 0 {
			s += sep
		}
		s += p.String()
	}
	return s + ")"
}

// CasePred wraps a predicate used as the condition of a CASE expression.
type CaseExpr struct {
	Cond Pred
	Then Expr
	Else Expr
	T    coltypes.Type
}

func (e *CaseExpr) Type() coltypes.Type { return e.T }
func (e *CaseExpr) String() string {
	return fmt.Sprintf("CASE WHEN %s THEN %s ELSE %s END", e.Cond, e.Then, e.Else)
}

// NewCase builds a CASE with scale unification of the arms.
func NewCase(cond Pred, then, els Expr) (*CaseExpr, error) {
	tt, et := then.Type(), els.Type()
	ts, es := scaleOf(tt), scaleOf(et)
	s := ts
	if es > s {
		s = es
	}
	t := coltypes.Int()
	if s > 0 {
		t = coltypes.Decimal(s)
	}
	return &CaseExpr{Cond: cond, Then: then, Else: els, T: t}, nil
}
