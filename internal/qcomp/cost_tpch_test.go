package qcomp_test

import (
	"testing"

	"rapid/internal/hostdb"
	"rapid/internal/plan"
	"rapid/internal/qcomp"
	"rapid/internal/sqlparse"
	"rapid/internal/tpch"
)

// TestSemiJoinPricedBuildingItsRightInput: Q4's EXISTS is a semi join of
// orders (left) against lineitem (right). It builds lineitem whatever the
// sizes, so the estimate prices it as building lineitem and probing orders,
// though lineitem is the larger input at SF 0.05.
func TestSemiJoinPricedBuildingItsRightInput(t *testing.T) {
	db := hostdb.New()
	defer db.Close()
	if err := tpch.PopulateHostDB(db, tpch.Config{ScaleFactor: 0.05, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	var sql string
	for _, q := range tpch.Queries() {
		if q.Name == "Q4" {
			sql = q.SQL
		}
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := sqlparse.Bind(stmt, db, db.CurrentSCN())
	if err != nil {
		t.Fatal(err)
	}
	if bound, err = plan.Live(bound); err != nil {
		t.Fatal(err)
	}
	c, err := qcomp.Compile(bound)
	if err != nil {
		t.Fatal(err)
	}
	var semi *plan.Join
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok && j.Type == plan.SemiJoin {
			semi = j
		}
		for _, k := range n.Children() {
			walk(k)
		}
	}
	walk(bound)
	if semi == nil {
		t.Fatalf("Q4 has no semi join:\n%s", plan.Format(bound))
	}
	build, probe, left, right := c.JoinRows(semi)
	if right <= left {
		t.Fatalf("lineitem side estimated at %d rows, orders side at %d: the test needs the larger build side", right, left)
	}
	if build != right || probe != left {
		t.Errorf("Q4 semi join priced building %d and probing %d rows; want building lineitem's %d and probing orders' %d", build, probe, right, left)
	}
}
