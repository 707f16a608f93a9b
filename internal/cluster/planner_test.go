package cluster

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"rapid/internal/hostdb"
	"rapid/internal/obs"
	"rapid/internal/plan"
	"rapid/internal/qef"
	"rapid/internal/sqlparse"
	"rapid/internal/storage"
	"rapid/internal/tpch"
)

// side is a stand-in join input with n columns.
func side(n int) plan.Node { return &relLeaf{fs: make([]plan.Field, n)} }

func refs(idx ...int) []plan.Expr {
	out := make([]plan.Expr, len(idx))
	for i, c := range idx {
		out[i] = &plan.ColRef{Idx: c}
	}
	return out
}

// TestPartitionColumnSet follows the partition-column set through the
// locality rules: an inner equi-join of co-partitioned sides carries the key
// on both sides' key columns, semi and left-outer joins only on the left's,
// a projection keeps the columns it passes through at their new positions and
// loses the partitioning when it drops them all, and a group-by is node-local
// exactly when one of them is among its keys.
func TestPartitionColumnSet(t *testing.T) {
	hash := &storage.ShardMap{Policy: storage.HashSharded, Nodes: 4}
	other := &storage.ShardMap{Policy: storage.RangeSharded, Nodes: 4, Bounds: []int64{10, 20, 30}}
	l := layout{cols: []int{1}, part: hash}
	r := layout{cols: []int{0}, part: hash}
	join := func(typ plan.JoinType, lk, rk int) *plan.Join {
		return &plan.Join{Type: typ, Left: side(3), Right: side(2), LeftKeys: []int{lk}, RightKeys: []int{rk}}
	}

	for _, tc := range []struct {
		name string
		j    *plan.Join
		l, r layout
		want []int
		ok   bool
	}{
		{"inner, co-partitioned", join(plan.InnerJoin, 1, 0), l, r, []int{1, 3}, true},
		{"semi, co-partitioned", join(plan.SemiJoin, 1, 0), l, r, []int{1}, true},
		{"anti, co-partitioned", join(plan.AntiJoin, 1, 0), l, r, []int{1}, true},
		{"left outer, co-partitioned", join(plan.LeftOuterJoin, 1, 0), l, r, []int{1}, true},
		{"inner, key off the left's partition column", join(plan.InnerJoin, 2, 0), l, r, nil, false},
		{"inner, key off the right's partition column", join(plan.InnerJoin, 1, 1), l, r, nil, false},
		{"inner, different partition functions", join(plan.InnerJoin, 1, 0), l, layout{cols: []int{0}, part: other}, nil, false},
		{"inner, part x repl", join(plan.InnerJoin, 2, 1), l, layout{repl: true}, []int{1}, true},
		{"left outer, part x repl", join(plan.LeftOuterJoin, 2, 1), l, layout{repl: true}, []int{1}, true},
		{"inner, repl x part", join(plan.InnerJoin, 2, 1), layout{repl: true}, r, []int{3}, true},
		{"semi, repl x part", join(plan.SemiJoin, 2, 1), layout{repl: true}, r, nil, false},
		{"inner, both sides carry two columns", join(plan.InnerJoin, 1, 0),
			layout{cols: []int{0, 1}, part: hash}, layout{cols: []int{0, 1}, part: hash}, []int{0, 1, 3, 4}, true},
	} {
		got, ok := colocated(tc.j, tc.l, tc.r)
		if ok != tc.ok || (ok && !reflect.DeepEqual(got.cols, tc.want)) {
			t.Errorf("%s: colocated = %v, %v; want %v, %v", tc.name, got.cols, ok, tc.want, tc.ok)
		}
		if ok && len(got.cols) > 0 && got.part == nil {
			t.Errorf("%s: partition columns %v without a partition function", tc.name, got.cols)
		}
		// A join that needs an exchange first says nothing about its output —
		// which side moves is not decided yet — so that no group-by above it
		// passes for node-local.
		if !ok && !reflect.DeepEqual(got, layout{}) {
			t.Errorf("%s: colocated = %+v with ok false; want the zero layout", tc.name, got)
		}
		if _, whole := groupLayout(&plan.GroupBy{Input: tc.j, Keys: refs(0, 1, 2, 3, 4)}, got); !ok && whole {
			t.Errorf("%s: a group-by over the not co-located join is node-local", tc.name)
		}
	}
	if got, ok := colocated(join(plan.InnerJoin, 0, 0), layout{repl: true}, layout{repl: true}); !ok || !got.repl {
		t.Errorf("repl x repl: colocated = %+v, %v; want replicated", got, ok)
	}

	both := layout{cols: []int{1, 3}, part: hash}
	for _, tc := range []struct {
		name  string
		exprs []plan.Expr
		want  []int
	}{
		{"identity", refs(0, 1, 2, 3), []int{1, 3}},
		{"reordered", refs(3, 0, 1), []int{0, 2}},
		{"one key column dropped", refs(0, 3), []int{1}},
		{"key projected twice", refs(1, 1), []int{0, 1}},
		{"both key columns dropped", refs(0, 2), nil},
		{"key only inside an expression", []plan.Expr{&plan.Arith{Op: plan.Add, L: &plan.ColRef{Idx: 1}, R: &plan.ColRef{Idx: 1}}}, nil},
	} {
		got := projectLayout(&plan.Project{Input: side(4), Exprs: tc.exprs}, both)
		if !reflect.DeepEqual(got.cols, tc.want) || (got.part != nil) != (len(tc.want) > 0) {
			t.Errorf("project %s: cols %v part %v, want cols %v", tc.name, got.cols, got.part, tc.want)
		}
	}

	for _, tc := range []struct {
		name  string
		keys  []plan.Expr
		in    layout
		want  []int
		whole bool
	}{
		{"keys include a partition column", refs(2, 3), both, []int{1}, true},
		{"keys include both", refs(3, 0, 1), both, []int{0, 2}, true},
		{"keys miss every partition column", refs(0, 2), both, nil, false},
		{"scalar aggregate", nil, both, nil, false},
		{"unknown partitioning", refs(0), layout{}, nil, false},
	} {
		got, whole := groupLayout(&plan.GroupBy{Input: side(4), Keys: tc.keys}, tc.in)
		if whole != tc.whole || (whole && !reflect.DeepEqual(got.cols, tc.want)) {
			t.Errorf("group-by %s: %v, %v; want %v, %v", tc.name, got.cols, whole, tc.want, tc.whole)
		}
	}
	if got, whole := groupLayout(&plan.GroupBy{Input: side(4)}, layout{repl: true}); !whole || !got.repl {
		t.Errorf("group-by over a replicated input: %+v, %v; want replicated and whole", got, whole)
	}
}

// tpchTray is a 4-node tray over a small auto-sharded TPC-H database: nation
// and region replicate, every other table hash-shards on its first column.
func tpchTray(t *testing.T) *Tray {
	t.Helper()
	db := hostdb.New()
	t.Cleanup(db.Close)
	if err := tpch.PopulateHostDB(db, tpch.Config{ScaleFactor: 0.002, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	tray, err := New(db, Config{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tray.Close)
	for _, name := range tpch.TableNames() {
		if err := tray.Load(name, nil); err != nil {
			t.Fatal(err)
		}
	}
	return tray
}

// lockstep binds sql at the tray's coordinator and rewrites it per node, the
// way execute does.
func lockstep(t *testing.T, tray *Tray, sql string) (plan.Node, []plan.Node) {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := sqlparse.Bind(stmt, engine{tray}, tray.host.CurrentSCN())
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]plan.Node, tray.NumNodes())
	for i := range plans {
		if plans[i], err = tray.rewriteForNode(bound, i); err != nil {
			t.Fatal(err)
		}
	}
	return bound, plans
}

// find returns the first node of the tree (pre-order) that match accepts.
func find(n plan.Node, match func(plan.Node) bool) plan.Node {
	if match(n) {
		return n
	}
	for _, c := range n.Children() {
		if hit := find(c, match); hit != nil {
			return hit
		}
	}
	return nil
}

// TestClassifyRunsNothing: a semi-join whose sub-query side cannot be
// localised (it groups by a column partsupp is not sharded on) sits on a
// lineitem ⋈ part join that needs an exchange. Classifying that semi-join
// must fail without executing a single fragment or exchange — the parent ran
// the left side's fragment and shuffle while classifying, threw them away and
// ran them again one level down — and the whole query must then execute the
// left side's exchange exactly once.
func TestClassifyRunsNothing(t *testing.T) {
	tray := tpchTray(t)
	const sql = `SELECT COUNT(*) FROM lineitem, part
WHERE l_partkey = p_partkey AND p_size < 20
  AND l_suppkey IN (SELECT ps_suppkey FROM partsupp GROUP BY ps_suppkey HAVING SUM(ps_availqty) > 20000)`
	bound, plans := lockstep(t, tray, sql)
	semi := func(n plan.Node) bool {
		j, ok := n.(*plan.Join)
		return ok && j.Type == plan.SemiJoin
	}
	if find(plans[0], semi) == nil {
		t.Fatalf("no semi-join in the plan:\n%s", plan.Format(bound))
	}

	exchanges := tray.Metrics().Counter("rapid_net_exchanges_total")
	before := exchanges.Value()
	if _, ok, err := classify(find(plans[0], semi)); err != nil || ok {
		t.Fatalf("classify(semi-join over a non-local sub-query) = %v, %v; want not node-local", ok, err)
	}
	if _, ok, err := classify(find(plans[0], semi).Children()[0]); err != nil || !ok {
		t.Fatalf("classify(left side) = %v, %v; want node-local", ok, err)
	}
	if d := exchanges.Value() - before; d != 0 {
		t.Fatalf("classification executed %d exchanges", d)
	}

	res, q, err := tray.execute(context.Background(), bound, QueryOptions{Mode: qef.ModeDPU, Trace: true}, obs.ActiveHandle{})
	if err != nil {
		t.Fatal(err)
	}
	if d := exchanges.Value() - before; d != int64(len(res.Exchanges)) {
		t.Fatalf("rapid_net_exchanges_total advanced by %d for %d reported exchanges", d, len(res.Exchanges))
	}
	// Every fragment that ran is in the trace, and the trace accounts for
	// every cycle the node contexts were billed: nothing ran off the record.
	seen := map[string]int{}
	fragments := make([]int64, len(q.nctx))
	for _, st := range res.Trace {
		if st.Exchange != nil {
			seen[fmt.Sprintf("exchange %s %s rows=%d", st.Exchange.Kind, st.Label, st.Exchange.RowsIn)]++
		}
		if st.NodeProfiles != nil {
			seen["fragment "+st.Label]++
		}
		for i, p := range st.NodeProfiles {
			if p != nil {
				fragments[i] += p.TotalCycles()
			}
		}
	}
	for what, times := range seen {
		if times > 1 && what != "fragment exchange input" {
			t.Errorf("%s ran %d times", what, times)
		}
	}
	if got := seen["fragment exchange input"]; got != 1 {
		t.Errorf("the lineitem side was materialised for its exchange %d times, want once (steps: %v)", got, seen)
	}
	for i, ctx := range q.nctx {
		if got := ctx.Usage().Cycles(); got != fragments[i] {
			t.Errorf("node %d billed %d cycles, its traced fragments %d", i, got, fragments[i])
		}
	}
}

// TestClassifyClaimsNoLayoutAcrossAnExchange: classify may know less about a
// subtree's layout than localize finds out, never more. A replicated table
// LEFT, SEMI or ANTI joined to a partitioned one localises by broadcasting the
// right and row-slicing the left, so its output is on no partition key: the
// join classifies node-local with the zero layout, and the group-by on the
// right's shard key above it does not.
func TestClassifyClaimsNoLayoutAcrossAnExchange(t *testing.T) {
	tray := tpchTray(t)
	for _, sql := range []string{
		`SELECT c_custkey, COUNT(*) FROM nation LEFT JOIN customer ON (n_nationkey = c_nationkey)
GROUP BY c_custkey HAVING COUNT(*) > 0`,
		`SELECT n_nationkey, COUNT(*) FROM nation WHERE n_nationkey IN (SELECT c_nationkey FROM customer)
GROUP BY n_nationkey HAVING COUNT(*) > 0`,
		`SELECT n_nationkey, COUNT(*) FROM nation WHERE n_nationkey NOT IN (SELECT c_nationkey FROM customer)
GROUP BY n_nationkey HAVING COUNT(*) > 0`,
	} {
		bound, plans := lockstep(t, tray, sql)
		join := find(plans[0], func(n plan.Node) bool { _, ok := n.(*plan.Join); return ok })
		group := find(plans[0], func(n plan.Node) bool { _, ok := n.(*plan.GroupBy); return ok })
		if join == nil || group == nil || join.(*plan.Join).Type == plan.InnerJoin {
			t.Fatalf("no outer/semi/anti join under a group-by in the plan:\n%s", plan.Format(bound))
		}
		if lay, ok, err := classify(join); err != nil || !ok || !reflect.DeepEqual(lay, layout{}) {
			t.Errorf("classify(%s) = %+v, %v, %v; want node-local with the zero layout", join, lay, ok, err)
		}
		if _, ok, err := classify(group); err != nil || ok {
			t.Errorf("classify(group-by over %s) = %v, %v; want not node-local", join, ok, err)
		}
	}
}
