package qcomp

import (
	"strings"
	"testing"

	"rapid/internal/coltypes"
	"rapid/internal/plan"
	"rapid/internal/storage"
)

// TestVocabularyRenderings pins how every value of the operator vocabulary
// renders: plan.Format of a join, set operation and window of each kind,
// every comparison and arithmetic operator inside a predicate, and the
// EXPLAIN ANALYZE span detail QComp gives the HashJoin, SetOp and Window it
// compiles from them. The plan prints join, set-operation and window kinds as
// integers and comparisons in SQL spelling; these strings are what EXPLAIN
// output and profile goldens carry.
func TestVocabularyRenderings(t *testing.T) {
	scan := plan.NewScan(ordersTable(t, 100), storage.LatestSCN, nil)
	ck, total := colRefOf(scan, "o_custkey"), colRefOf(scan, "o_total")
	keys := &plan.Project{Input: scan, Exprs: []plan.Expr{ck}, Names: []string{"k"}}
	three := &plan.Const{T: coltypes.Int(), Val: 3}

	// span renders the first operator span of that name: name plus detail.
	span := func(n plan.Node, name string) string {
		t.Helper()
		c, err := Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range c.SpanDefs() {
			if d.Name == name {
				return d.Name + d.Detail
			}
		}
		t.Fatalf("no %s span in %s", name, plan.Format(n))
		return ""
	}
	head := func(n plan.Node) string { return strings.SplitN(plan.Format(n), "\n", 2)[0] }

	joins := []struct {
		typ          plan.JoinType
		format, span string
	}{
		{plan.InnerJoin, "Join(type=0, keys=[1]=[0])", "HashJoin(type=0, scheme=32)"},
		{plan.SemiJoin, "Join(type=1, keys=[1]=[0])", "HashJoin(type=1, scheme=32)"},
		{plan.AntiJoin, "Join(type=2, keys=[1]=[0])", "HashJoin(type=2, scheme=32)"},
		{plan.LeftOuterJoin, "Join(type=3, keys=[1]=[0])", "HashJoin(type=3, scheme=32)"},
	}
	for _, c := range joins {
		j := &plan.Join{Type: c.typ, Left: scan, Right: keys, LeftKeys: []int{1}, RightKeys: []int{0}}
		if got := head(j); got != c.format {
			t.Errorf("Format(join %d) = %q, want %q", c.typ, got, c.format)
		}
		if got := span(j, "HashJoin"); got != c.span {
			t.Errorf("span(join %d) = %q, want %q", c.typ, got, c.span)
		}
	}

	setops := []struct {
		kind         plan.SetOpKind
		format, span string
	}{
		{plan.Union, "SetOp(0)", "SetOp(0)"},
		{plan.UnionAll, "SetOp(1)", "SetOp(1)"},
		{plan.Intersect, "SetOp(2)", "SetOp(2)"},
		{plan.Minus, "SetOp(3)", "SetOp(3)"},
	}
	for _, c := range setops {
		s := &plan.SetOp{Kind: c.kind, Left: keys, Right: keys}
		if got := head(s); got != c.format {
			t.Errorf("Format(setop %d) = %q, want %q", c.kind, got, c.format)
		}
		if got := span(s, "SetOp"); got != c.span {
			t.Errorf("span(setop %d) = %q, want %q", c.kind, got, c.span)
		}
	}

	windows := []struct {
		fn           plan.WindowFunc
		format, span string
	}{
		{plan.RowNumber, "Window(f=0)", "Window(f=0)"},
		{plan.Rank, "Window(f=1)", "Window(f=1)"},
		{plan.DenseRank, "Window(f=2)", "Window(f=2)"},
		{plan.CumSum, "Window(f=3)", "Window(f=3)"},
		{plan.WinTotalSum, "Window(f=4)", "Window(f=4)"},
	}
	for _, c := range windows {
		w := &plan.Window{Input: scan, Func: c.fn, PartitionBy: []int{1}, OrderBy: []plan.SortItem{{Col: 0}}, ValueCol: 2, Name: "w"}
		if got := head(w); got != c.format {
			t.Errorf("Format(window %d) = %q, want %q", c.fn, got, c.format)
		}
		if got := span(w, "Window"); got != c.span {
			t.Errorf("span(window %d) = %q, want %q", c.fn, got, c.span)
		}
	}

	cmps := []struct {
		op   plan.CmpOp
		want string
	}{
		{plan.EQ, "Filter(o_custkey = 3)"},
		{plan.NE, "Filter(o_custkey <> 3)"},
		{plan.LT, "Filter(o_custkey < 3)"},
		{plan.LE, "Filter(o_custkey <= 3)"},
		{plan.GT, "Filter(o_custkey > 3)"},
		{plan.GE, "Filter(o_custkey >= 3)"},
	}
	for _, c := range cmps {
		if got := head(&plan.Filter{Input: scan, Pred: &plan.Cmp{Op: c.op, L: ck, R: three}}); got != c.want {
			t.Errorf("Format(cmp %d) = %q, want %q", c.op, got, c.want)
		}
	}

	ariths := []struct {
		op   plan.ArithOp
		want string
	}{
		{plan.Add, "Filter((o_custkey + o_total) > 3)"},
		{plan.Sub, "Filter((o_custkey - o_total) > 3)"},
		{plan.Mul, "Filter((o_custkey * o_total) > 3)"},
		{plan.Div, "Filter((o_custkey / o_total) > 3)"},
	}
	for _, c := range ariths {
		e, err := plan.NewArith(c.op, ck, total)
		if err != nil {
			t.Fatal(err)
		}
		if got := head(&plan.Filter{Input: scan, Pred: &plan.Cmp{Op: plan.GT, L: e, R: three}}); got != c.want {
			t.Errorf("Format(arith %d) = %q, want %q", c.op, got, c.want)
		}
	}
}
