package qcomp

import (
	"errors"
	"testing"

	"rapid/internal/coltypes"
	"rapid/internal/plan"
	"rapid/internal/qef"
	"rapid/internal/storage"
)

// TestBareProjectIsTheSinksSelection: a Project of bare column references
// that ends a collecting pipeline is the CollectSink's column selection. It
// compiles to no step and no span, bills the cycles of the pipeline without
// it, reads the same bytes, and writes only the columns it
// collects.
func TestBareProjectIsTheSinksSelection(t *testing.T) {
	tbl := ordersTable(t, 20000)
	scan := plan.NewScan(tbl, storage.LatestSCN, []int{0, 1, 2, 3})
	date0 := storage.DateValue(1995, 6, 1).Days()
	filtered := &plan.Filter{
		Input: scan,
		Pred:  &plan.Cmp{Op: plan.GE, L: colRefOf(scan, "o_date"), R: &plan.Const{T: coltypes.Date(), Val: date0}},
	}
	selected := &plan.Project{
		Input: filtered,
		Exprs: []plan.Expr{colRefOf(scan, "o_total"), colRefOf(scan, "o_orderkey")},
		Names: []string{"total", "o_orderkey"},
	}
	exec := func(n plan.Node) (*Compiled, qef.Usage, [][]int64) {
		c, err := Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		ctx := qef.NewContext(qef.ModeDPU)
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
		return c, ctx.Usage(), rows
	}
	_, all, wide := exec(filtered)
	c, sel, narrow := exec(selected)

	if hasSpan(c, "Project") {
		t.Errorf("the selection compiled to a Project step: %+v", c.SpanDefs())
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
