package qcomp

import (
	"errors"
	"testing"

	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/obs"
	"rapid/internal/plan"
	"rapid/internal/qef"
	"rapid/internal/storage"
)

// execProfiled compiles n, runs it once in ModeDPU under a profile of its
// spans, and returns the plan, its usage, the profile and the result rows.
func execProfiled(t *testing.T, n plan.Node) (*Compiled, qef.Usage, obs.Summary, [][]int64) {
	t.Helper()
	c, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	ctx := qef.NewContext(qef.ModeDPU)
	ctx.Prof = obs.NewProfile("dpu", ctx.SoC.Config().NumCores, dpu.FreqHz, c.SpanDefs())
	rel, err := c.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]int64, rel.Rows())
	for r := range rows {
		for col := range rel.Cols {
			rows[r] = append(rows[r], rel.Get(r, col))
		}
	}
	return c, ctx.Usage(), ctx.Prof.Summary(), rows
}

// sameBill fails unless two usages bill the same cycles and DMS bytes.
func sameBill(t *testing.T, what string, got, want qef.Usage) {
	t.Helper()
	if got.Cycles() != want.Cycles() || got.Read.Bytes != want.Read.Bytes || got.Write.Bytes != want.Write.Bytes {
		t.Errorf("%s bills %d cycles, %d+%d DMS bytes; want %d cycles, %d+%d", what,
			got.Cycles(), got.Read.Bytes, got.Write.Bytes, want.Cycles(), want.Read.Bytes, want.Write.Bytes)
	}
}

// filteredOrders is a 20,000-row orders scan under a filter that keeps part
// of every tile, so the pipeline's tiles reach a projection sparse.
func filteredOrders(t *testing.T) (*plan.Scan, *plan.Filter) {
	scan := plan.NewScan(ordersTable(t, 20000), storage.LatestSCN, []int{0, 1, 2, 3})
	date0 := storage.DateValue(1995, 6, 1).Days()
	return scan, &plan.Filter{
		Input: scan,
		Pred:  &plan.Cmp{Op: plan.GE, L: colRefOf(scan, "o_date"), R: &plan.Const{T: coltypes.Date(), Val: date0}},
	}
}

// TestBareProjectIsTheSinksSelection: a Project of bare column references
// that ends a collecting pipeline is a header move. Its Project span bills
// nothing, the pipeline bills the cycles of the pipeline without it and
// reads the same bytes, and the sink writes only the columns selected.
func TestBareProjectIsTheSinksSelection(t *testing.T) {
	scan, filtered := filteredOrders(t)
	selected := &plan.Project{
		Input: filtered,
		Exprs: []plan.Expr{colRefOf(scan, "o_total"), colRefOf(scan, "o_orderkey")},
		Names: []string{"total", "o_orderkey"},
	}
	_, all, _, wide := execProfiled(t, filtered)
	_, sel, prof, narrow := execProfiled(t, selected)

	projects := 0
	for _, op := range prof.Ops {
		if op.Name != "Project" {
			continue
		}
		projects++
		if op.Cycles != 0 || op.ReadBytes != 0 || op.WriteBytes != 0 {
			t.Errorf("the selection's Project span bills %d cycles, %d+%d DMS bytes; want nothing", op.Cycles, op.ReadBytes, op.WriteBytes)
		}
	}
	if projects != 1 {
		t.Errorf("%d Project spans, want the selection's one: %+v", projects, prof.Ops)
	}
	if len(narrow) == 0 || len(narrow) != len(wide) {
		t.Fatalf("selected %d rows, the pipeline collects %d", len(narrow), len(wide))
	}
	for r := range wide {
		if narrow[r][0] != wide[r][2] || narrow[r][1] != wide[r][0] {
			t.Fatalf("row %d: selected %v from %v", r, narrow[r], wide[r])
		}
	}
	if sel.Cycles() != all.Cycles() {
		t.Errorf("the selection bills %d cycles, the pipeline without it %d", sel.Cycles(), all.Cycles())
	}
	if sel.Read.Bytes != all.Read.Bytes {
		t.Errorf("the selection reads %d DMS bytes, the pipeline without it %d", sel.Read.Bytes, all.Read.Bytes)
	}
	if want := all.Write.Bytes / 2; sel.Write.Bytes != want {
		t.Errorf("collecting 2 of 4 columns writes %d DMS bytes, want %d (half of %d)", sel.Write.Bytes, want, all.Write.Bytes)
	}
}

// TestProjectOutputsInPlanOrder: a Project emits its outputs in plan order,
// so a computed output before a bare column answers and bills exactly as
// the same outputs the other way round. The bare column is kept either way,
// never copied through an expression.
func TestProjectOutputsInPlanOrder(t *testing.T) {
	scan, filtered := filteredOrders(t)
	total, key := colRefOf(scan, "o_total"), colRefOf(scan, "o_orderkey")
	sum := &plan.Arith{Op: plan.Add, L: total, R: total, T: total.T}
	sumFirst := &plan.Project{Input: filtered, Exprs: []plan.Expr{sum, key}, Names: []string{"t2", "o_orderkey"}}
	keyFirst := &plan.Project{Input: filtered, Exprs: []plan.Expr{key, sum}, Names: []string{"o_orderkey", "t2"}}
	c, got, _, rows := execProfiled(t, sumFirst)
	_, want, _, ref := execProfiled(t, keyFirst)
	if fs := c.root.fields(); fs[0].Name != "t2" || fs[1].Name != "o_orderkey" {
		t.Fatalf("fields %v, want t2, o_orderkey", fs)
	}
	if len(rows) == 0 || len(rows) != len(ref) {
		t.Fatalf("%d rows, the other order %d", len(rows), len(ref))
	}
	for r := range ref {
		if rows[r][0] != ref[r][1] || rows[r][1] != ref[r][0] {
			t.Fatalf("row %d: %v, the other order %v", r, rows[r], ref[r])
		}
	}
	sameBill(t, "computed then bare", got, want)
}

// TestJoinOutputsItsOutColumns: a join outputs the columns its Out lists, in
// Out's order, whichever side builds — here the left, the smaller input, and
// Out interleaves the sides — and a join whose output is not as wide as its
// plan node declares fails with a WidthError.
func TestJoinOutputsItsOutColumns(t *testing.T) {
	cust := plan.NewScan(custTable(t, 200), storage.LatestSCN, nil)
	orders := plan.NewScan(ordersTable(t, 4000), storage.LatestSCN, nil)
	all := &plan.Join{Type: plan.InnerJoin, Left: cust, Right: orders, LeftKeys: []int{0}, RightKeys: []int{1}}
	out := []int{5, 1, 3} // o_total, c_name, o_orderkey
	narrowed := *all
	narrowed.Out = out
	for _, mode := range []qef.Mode{qef.ModeDPU, qef.ModeX86} {
		want := run(t, qef.NewContext(mode), all)
		c, err := Compile(&narrowed)
		if err != nil {
			t.Fatal(err)
		}
		if jn := c.root.(*joinNode); !jn.swapped {
			t.Fatal("the smaller left input does not build; the test no longer reorders")
		}
		got, err := c.Execute(qef.NewContext(mode))
		if err != nil {
			t.Fatal(err)
		}
		if got.NumCols() != len(out) || got.Rows() != want.Rows() {
			t.Fatalf("%v: %d columns × %d rows, want %d × %d", mode, got.NumCols(), got.Rows(), len(out), want.Rows())
		}
		for i, src := range out {
			if got.Cols[i].Name != want.Cols[src].Name {
				t.Fatalf("%v: column %d is %s, want %s", mode, i, got.Cols[i].Name, want.Cols[src].Name)
			}
			for r := 0; r < got.Rows(); r++ {
				if got.Get(r, i) != want.Get(r, src) {
					t.Fatalf("%v: row %d column %s = %d, want %d", mode, r, got.Cols[i].Name, got.Get(r, i), want.Get(r, src))
				}
			}
		}

		c.root.(*joinNode).out = append(narrowed.Schema(), plan.Field{Name: "extra"})
		var werr *WidthError
		if _, err := c.Execute(qef.NewContext(mode)); !errors.As(err, &werr) || werr.Got != 3 || werr.Want != 4 {
			t.Fatalf("%v: a join declaring 4 columns and emitting 3 returned %v", mode, err)
		}
	}
}
