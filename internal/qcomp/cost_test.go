package qcomp

import (
	"fmt"
	"math"
	"testing"

	"rapid/internal/plan"
	"rapid/internal/storage"
)

// estimate compiles n and returns the cost model's estimate of it.
func estimate(t *testing.T, n plan.Node) CostEstimate {
	t.Helper()
	c, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	return c.Estimate()
}

func TestEstimateMonotonicity(t *testing.T) {
	small := ordersTable(t, 1000)
	big := ordersTable(t, 50000)
	es := estimate(t, plan.NewScan(small, storage.LatestSCN, nil))
	eb := estimate(t, plan.NewScan(big, storage.LatestSCN, nil))
	if eb.Seconds <= es.Seconds {
		t.Fatal("bigger scan must cost more")
	}
	if eb.OutputRows != 50000 {
		t.Fatalf("scan rows = %d", eb.OutputRows)
	}
	// A filter shrinks the estimated output and cannot make it cheaper
	// than the underlying scan transfer.
	scan := plan.NewScan(big, storage.LatestSCN, nil)
	f := &plan.Filter{Input: scan, Pred: &plan.Cmp{Op: plan.GT,
		L: colRefOf(scan, "o_custkey"), R: &plan.Const{Val: 10}}}
	ef := estimate(t, f)
	if ef.OutputRows >= eb.OutputRows {
		t.Fatal("filter must reduce estimated rows")
	}
	if ef.Seconds < eb.Seconds {
		t.Fatal("filter cannot be cheaper than its scan")
	}
}

func TestEstimateJoinAndAggregate(t *testing.T) {
	orders := ordersTable(t, 20000)
	cust := custTable(t, 500)
	so := plan.NewScan(orders, storage.LatestSCN, nil)
	sc := plan.NewScan(cust, storage.LatestSCN, nil)
	j := &plan.Join{Type: plan.InnerJoin, Left: so, Right: sc, LeftKeys: []int{1}, RightKeys: []int{0}}
	ej := estimate(t, j)
	if ej.Seconds <= estimate(t, so).Seconds {
		t.Fatal("join must cost more than scanning one side")
	}
	if ej.OutputCols != len(j.Schema()) {
		t.Fatalf("join cols = %d, want %d", ej.OutputCols, len(j.Schema()))
	}
	g := &plan.GroupBy{Input: j, Keys: []plan.Expr{colRefOf(so, "o_custkey")},
		Aggs: []plan.AggExpr{{Kind: plan.CountStar, Name: "n"}}}
	eg := estimate(t, g)
	if eg.OutputRows >= ej.OutputRows {
		t.Fatal("group-by must reduce estimated rows")
	}
	// Sort, limit, window, setop cover the remaining estimators.
	s := &plan.Sort{Input: g, Keys: []plan.SortItem{{Col: 0}}}
	if estimate(t, s).Seconds <= eg.Seconds {
		t.Fatal("sort adds cost")
	}
	l := &plan.Limit{Input: s, K: 5}
	if estimate(t, l).OutputRows != 5 {
		t.Fatal("limit rows")
	}
	w := &plan.Window{Input: g, Func: plan.RowNumber}
	if estimate(t, w).OutputCols != eg.OutputCols+1 {
		t.Fatal("window adds a column")
	}
	u := &plan.SetOp{Kind: plan.Union, Left: g, Right: g}
	if estimate(t, u).OutputRows != 2*eg.OutputRows {
		t.Fatal("union row estimate")
	}
}

func TestOffloadBenefitPrefersRapidForAnalytics(t *testing.T) {
	// A large scan+aggregate is the textbook offload case: the RAPID
	// estimate (including result return) must beat the host's
	// row-at-a-time model.
	tbl := ordersTable(t, 100000)
	scan := plan.NewScan(tbl, storage.LatestSCN, nil)
	g := &plan.GroupBy{Input: scan, Aggs: []plan.AggExpr{{Kind: plan.CountStar, Name: "n"}}}
	rapidSec, hostSec := OffloadBenefit(g)
	if rapidSec >= hostSec {
		t.Fatalf("offload should win: rapid %.3gs vs host %.3gs", rapidSec, hostSec)
	}
	// The result-transfer term matters: a full-table SELECT * offload of
	// everything back over the network must look worse relative to its
	// own execution than the aggregate did.
	all := plan.NewScan(tbl, storage.LatestSCN, nil)
	rAll, hAll := OffloadBenefit(all)
	aggAdvantage := hostSec / rapidSec
	scanAdvantage := hAll / rAll
	if scanAdvantage >= aggAdvantage {
		t.Fatalf("returning all rows should dilute the offload advantage (%.1f vs %.1f)",
			scanAdvantage, aggAdvantage)
	}
}

// TestEstimateTakesTheCompilersRows pins that the cost model counts rows the
// way the compiler does — column statistics and zone maps — and has no
// selectivity of its own: 40 of 20,000 orders survive o_orderkey < 40, and
// an aggregate yields its group count.
func TestEstimateTakesTheCompilersRows(t *testing.T) {
	tbl := ordersTable(t, 20000)
	scan := plan.NewScan(tbl, storage.LatestSCN, nil)
	f := &plan.Filter{Input: scan, Pred: &plan.Cmp{Op: plan.LT,
		L: colRefOf(scan, "o_orderkey"), R: &plan.Const{Val: 40}}}
	c, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Estimate().OutputRows; got != c.root.estRows() || got < 20 || got > 80 {
		t.Fatalf("filter rows = %d (compiler %d), want ~40", got, c.root.estRows())
	}
	g := &plan.GroupBy{Input: scan, Keys: []plan.Expr{colRefOf(scan, "o_custkey")},
		Aggs: []plan.AggExpr{{Kind: plan.CountStar, Name: "n"}}}
	if got := estimate(t, g).OutputRows; got != 200 {
		t.Fatalf("group-by rows = %d, want the 200 o_custkey values", got)
	}
}

// TestOffloadBenefitOfARejectedPlan: a plan the compiler rejects cannot run
// on RAPID, so it is priced at +Inf there.
func TestOffloadBenefitOfARejectedPlan(t *testing.T) {
	scan := plan.NewScan(ordersTable(t, 100), storage.LatestSCN, nil)
	j := &plan.Join{Type: plan.InnerJoin, Left: scan, Right: scan}
	if rapidSec, _ := OffloadBenefit(j); !math.IsInf(rapidSec, 1) {
		t.Fatalf("rapid = %v, want +Inf for a join without keys", rapidSec)
	}
}

// TestEstimateOfAColumnSelection: a Project of bare columns over a filter
// extends the filter's pipeline as a header move
// (TestBareProjectIsTheSinksSelection), and the estimate prices it at
// nothing, also under a GroupBy, whose bill it leaves unchanged; a computed
// Project over the same filter costs its per-row term.
func TestEstimateOfAColumnSelection(t *testing.T) {
	scan := plan.NewScan(ordersTable(t, 20000), storage.LatestSCN, nil)
	f := &plan.Filter{Input: scan, Pred: &plan.Cmp{Op: plan.GT,
		L: colRefOf(scan, "o_custkey"), R: &plan.Const{Val: 10}}}
	key := colRefOf(scan, "o_orderkey")
	sel := &plan.Project{Input: f, Exprs: []plan.Expr{key}, Names: []string{"o_orderkey"}}
	if got, want := estimate(t, sel).Seconds, estimate(t, f).Seconds; got != want {
		t.Fatalf("selection = %g s, want the filter's %g s", got, want)
	}
	sum := &plan.Project{Input: f, Exprs: []plan.Expr{&plan.Arith{Op: plan.Add, L: key, R: key, T: key.T}}, Names: []string{"k2"}}
	if got, want := estimate(t, sum).Seconds, estimate(t, f).Seconds; got <= want {
		t.Fatalf("computed project = %g s, want more than the filter's %g s", got, want)
	}

	grouped := func(in plan.Node) *plan.GroupBy {
		return &plan.GroupBy{Input: in, Keys: []plan.Expr{colRefOf(in, "o_custkey")},
			Aggs: []plan.AggExpr{{Kind: plan.Sum, Arg: colRefOf(in, "o_total"), Name: "s"}, {Kind: plan.CountStar, Name: "n"}}}
	}
	overFilter := grouped(f)
	overSel := grouped(&plan.Project{Input: f, Exprs: []plan.Expr{colRefOf(f, "o_total"), colRefOf(f, "o_custkey")},
		Names: []string{"o_total", "o_custkey"}})
	if got, want := estimate(t, overSel).Seconds, estimate(t, overFilter).Seconds; got != want {
		t.Fatalf("group-by over the selection = %g s, over the filter %g s", got, want)
	}
	_, got, _, rows := execProfiled(t, overSel)
	_, want, _, ref := execProfiled(t, overFilter)
	if len(rows) == 0 || fmt.Sprint(rows) != fmt.Sprint(ref) {
		t.Fatalf("group-by over the selection answers %d groups, over the filter %d", len(rows), len(ref))
	}
	sameBill(t, "the group-by over the selection", got, want)
}
