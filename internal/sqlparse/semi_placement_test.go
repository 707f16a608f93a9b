package sqlparse_test

import (
	"strings"
	"testing"

	"rapid/internal/hostdb"
	"rapid/internal/plan"
	"rapid/internal/sqlparse"
	"rapid/internal/tpch"
)

// TestSemiJoinPlacement: the binder places an IN / NOT IN sub-query join
// directly above the input that owns its key column, down through inner
// joins and never into or under an outer join. A semi or anti join keeps its
// left's schema, so the plan with each such join cut out (its left in its
// place) formats exactly as the statement bound without the predicate: no
// node above the moved join changed.
func TestSemiJoinPlacement(t *testing.T) {
	db := hostdb.New()
	t.Cleanup(db.Close)
	if err := tpch.PopulateHostDB(db, tpch.Config{ScaleFactor: 0.002, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	// Every column a predicate below names is already read without it, so
	// the scans, and every key position, are the same with and without.
	const chain = `SELECT c_name, o_orderkey, l_suppkey, SUM(l_quantity) FROM lineitem, orders, customer
WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey`
	const group = ` GROUP BY c_name, o_orderkey, l_suppkey`
	const sub = ` (SELECT l_orderkey FROM lineitem GROUP BY l_orderkey HAVING SUM(l_quantity) > 150)`
	for _, tc := range []struct {
		name, base, pred, tail string
		typ                    plan.JoinType
		// over is the plan.Format of the semi or anti join's left input.
		over string
	}{
		{"IN on the second table", chain, ` AND o_orderkey IN` + sub, group, plan.SemiJoin, "Scan(orders)\n"},
		{"IN on the third table", chain, ` AND c_custkey IN (SELECT o_custkey FROM orders GROUP BY o_custkey HAVING COUNT(*) > 12)`, group,
			plan.SemiJoin, "Scan(customer)\n"},
		{"IN on a filtered table", chain + ` AND c_acctbal > 0`, ` AND c_custkey IN (SELECT o_custkey FROM orders)`, group,
			plan.SemiJoin, "Filter(c_acctbal > 0)\n  Scan(customer)\n"},
		{"NOT IN on the second table", chain, ` AND o_orderkey NOT IN` + sub, group, plan.AntiJoin, "Scan(orders)\n"},
		{"NOT IN on the first table", chain, ` AND l_suppkey NOT IN (SELECT s_suppkey FROM supplier WHERE s_acctbal > 0)`, group,
			plan.AntiJoin, "Scan(lineitem)\n"},
		{"IN on a LEFT JOIN's nullable side", `SELECT n_name, r_name FROM nation LEFT JOIN region ON (n_regionkey = r_regionkey)
WHERE n_nationkey < 20`, ` AND r_regionkey IN (SELECT n_regionkey FROM nation WHERE n_nationkey > 20)`, "",
			plan.SemiJoin, "Join(type=3, keys=[2]=[0])\n  Filter(n_nationkey < 20)\n    Scan(nation)\n  Scan(region)\n"},
		{"NOT IN on a LEFT JOIN's preserved side", `SELECT n_name, r_name FROM nation LEFT JOIN region ON (n_regionkey = r_regionkey)
WHERE n_nationkey < 20`, ` AND n_nationkey NOT IN (SELECT c_nationkey FROM customer)`, "",
			plan.AntiJoin, "Join(type=3, keys=[2]=[0])\n  Filter(n_nationkey < 20)\n    Scan(nation)\n  Scan(region)\n"},
	} {
		with := bind(t, db, tc.base+tc.pred+tc.tail)
		j := findSemi(with)
		if j == nil || j.Type != tc.typ {
			t.Errorf("%s: no join of type %d in\n%s", tc.name, tc.typ, plan.Format(with))
			continue
		}
		if got := plan.Format(j.Left); got != tc.over {
			t.Errorf("%s: the join sits on\n%swant\n%s", tc.name, got, tc.over)
		}
		cut, err := cutSemis(with)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := plan.Format(cut), plan.Format(bind(t, db, tc.base+tc.tail)); got != want {
			t.Errorf("%s: the plan around the join moved:\n%s\nwithout the predicate:\n%s", tc.name, got, want)
		}
	}
}

func bind(t *testing.T, db *hostdb.Database, sql string) plan.Node {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("%v\n%s", err, sql)
	}
	n, err := sqlparse.Bind(stmt, db, db.CurrentSCN())
	if err != nil {
		t.Fatalf("%v\n%s", err, strings.TrimSpace(sql))
	}
	return n
}

func isSemi(n plan.Node) (*plan.Join, bool) {
	j, ok := n.(*plan.Join)
	return j, ok && (j.Type == plan.SemiJoin || j.Type == plan.AntiJoin)
}

// findSemi is the first semi or anti join of the tree, pre-order.
func findSemi(n plan.Node) *plan.Join {
	if j, ok := isSemi(n); ok {
		return j
	}
	for _, c := range n.Children() {
		if j := findSemi(c); j != nil {
			return j
		}
	}
	return nil
}

// cutSemis rebuilds n with every semi or anti join replaced by its left.
func cutSemis(n plan.Node) (plan.Node, error) {
	if j, ok := isSemi(n); ok {
		return cutSemis(j.Left)
	}
	kids := n.Children()
	if len(kids) == 0 {
		return n, nil
	}
	for i, k := range kids {
		var err error
		if kids[i], err = cutSemis(k); err != nil {
			return nil, err
		}
	}
	return plan.WithChildren(n, kids...)
}
