package cluster

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rapid/internal/coltypes"
	"rapid/internal/hostdb"
	"rapid/internal/obs"
	"rapid/internal/ops"
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
	other := &storage.ShardMap{Policy: storage.HashSharded, Nodes: 8}
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

// planned binds sql at the tray's coordinator and resolves it the way execute
// does: the bound plan, the one tree the planner works on, and a query
// carrying the resolved shard sets for bind.
func planned(t *testing.T, tray *Tray, sql string) (bound, tree plan.Node, q *query) {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if bound, err = sqlparse.Bind(stmt, engine{tray}, tray.host.CurrentSCN()); err != nil {
		t.Fatal(err)
	}
	tree, shards, err := tray.resolve(bound)
	if err != nil {
		t.Fatal(err)
	}
	return bound, tree, &query{shards: shards}
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

// Bill of TestClassifyRunsNothing's statement at commit 6ca1ff4, whose binder
// placed the semi-join above the lineitem ⋈ part join (4-node tpchTray,
// ModeDPU): the semi-join ran at the coordinator over the join's output.
const (
	parentSemiNetBytes = 152368
	parentSemiCycles   = 588429
)

// TestClassifyRunsNothing: a semi-join whose sub-query side cannot be
// localised (it groups by a column partsupp is not sharded on) sits on
// lineitem, under a lineitem ⋈ part join that needs an exchange. Classifying
// that semi-join must fail without executing a single fragment or exchange —
// the parent ran the left side's fragment and shuffle while classifying,
// threw them away and ran them again one level down. lift then moves the
// semi-join back above the inner join, and the whole query must execute the
// left side's exchange exactly once, run the semi-join once at the
// coordinator (one semi HashJoin span in its one fragment), and move no more bytes and bill no more cycles than when the
// binder placed the semi-join there.
func TestClassifyRunsNothing(t *testing.T) {
	tray := tpchTray(t)
	const sql = `SELECT COUNT(*) FROM lineitem, part
WHERE l_partkey = p_partkey AND p_size < 20
  AND l_suppkey IN (SELECT ps_suppkey FROM partsupp GROUP BY ps_suppkey HAVING SUM(ps_availqty) > 20000)`
	bound, tree, _ := planned(t, tray, sql)
	semi := func(n plan.Node) bool {
		j, ok := n.(*plan.Join)
		return ok && j.Type == plan.SemiJoin
	}
	inner, ok := tree.Children()[0].Children()[0].(*plan.Join)
	if !ok || inner.Type != plan.InnerJoin || find(inner.Left, semi) == nil {
		t.Fatalf("the semi-join is not under the inner join:\n%s", plan.Format(bound))
	}

	exchanges := tray.Metrics().Counter("rapid_net_exchanges_total")
	before := exchanges.Value()
	if _, ok := classify(find(tree, semi)); ok {
		t.Fatal("classify(semi-join over a non-local sub-query) says node-local")
	}
	if _, ok := classify(find(tree, semi).Children()[0]); !ok {
		t.Fatal("classify(left side) says not node-local")
	}
	lifted, err := lift(tree)
	if err != nil {
		t.Fatal(err)
	}
	if j := find(lifted, semi).(*plan.Join); j.Left.(*plan.Join).Type != plan.InnerJoin {
		t.Fatalf("lift left the semi-join under the inner join:\n%s", plan.Format(lifted))
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
			seen[fmt.Sprintf("exchange %s %s rows=%d", st.Exchange.Kind, st.Label, st.Exchange.RowsOut)]++
		}
		if st.NodeProfiles != nil {
			seen["fragment "+st.Label]++
		}
		if st.Coord != nil {
			seen["coordinator fragment"]++
			for _, d := range st.Coord.Defs {
				if d.Name == "HashJoin" && strings.HasPrefix(d.Detail, fmt.Sprintf("(type=%v,", plan.SemiJoin)) {
					seen["semi-join at the coordinator"]++
				}
			}
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
	if got := seen["semi-join at the coordinator"]; got != 1 {
		t.Errorf("the semi-join ran %d times at the coordinator, want once (steps: %v)", got, seen)
	}
	for i, ctx := range q.nctx {
		if got := ctx.Usage().Cycles(); got != fragments[i] {
			t.Errorf("node %d billed %d cycles, its traced fragments %d", i, got, fragments[i])
		}
	}
	if res.NetBytes > parentSemiNetBytes || res.Cycles > parentSemiCycles {
		t.Errorf("net %d B, %d cycles; placed above the inner join it moved %d B and billed %d cycles",
			res.NetBytes, res.Cycles, parentSemiNetBytes, parentSemiCycles)
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
		bound, tree, _ := planned(t, tray, sql)
		join := find(tree, func(n plan.Node) bool { _, ok := n.(*plan.Join); return ok })
		group := find(tree, func(n plan.Node) bool { _, ok := n.(*plan.GroupBy); return ok })
		if join == nil || group == nil || join.(*plan.Join).Type == plan.InnerJoin {
			t.Fatalf("no outer/semi/anti join under a group-by in the plan:\n%s", plan.Format(bound))
		}
		if lay, ok := classify(join); !ok || !reflect.DeepEqual(lay, layout{}) {
			t.Errorf("classify(%s) = %+v, %v; want node-local with the zero layout", join, lay, ok)
		}
		if _, ok := classify(group); ok {
			t.Errorf("classify(group-by over %s) says node-local", join)
		}
	}
}

// scans collects the Scan leaves of a tree, left to right.
func scans(n plan.Node) []*plan.Scan {
	var out []*plan.Scan
	plan.MapLeaves(n, func(l plan.Node) (plan.Node, error) {
		if s, ok := l.(*plan.Scan); ok {
			out = append(out, s)
		}
		return l, nil
	})
	return out
}

// TestEveryNodeBindsTheResolvedShardSet: a query resolves each table's shard
// set once, and a reload landing while it runs cannot reach it. nation starts
// replicated; an insert pushes it past ReplicateMaxRows, so the next query's
// resolution reloads it hash-sharded — but the query resolved before the
// insert still binds both Scans of its self-join, on every node, to the one
// load it resolved. (Resolving per node and per Scan, as the tray did, bound
// node 0 to a full replica and the nodes after the reload to hash shards: rows
// duplicated under a layout read from node 0.)
func TestEveryNodeBindsTheResolvedShardSet(t *testing.T) {
	tray := tpchTray(t)
	const sql = `SELECT COUNT(*) FROM nation n1, nation n2 WHERE n1.n_regionkey = n2.n_regionkey`
	_, tree, q := planned(t, tray, sql)
	resolved := q.shards["nation"]
	if got := resolved[0].ShardMap().Policy; got != storage.Replicated {
		t.Fatalf("nation starts %v, want replicated", got)
	}

	var rows [][]storage.Value
	for k := int64(100); k < 180; k++ {
		rows = append(rows, []storage.Value{storage.IntValue(k), storage.StrValue("ATLANTIS"), storage.IntValue(k % 5)})
	}
	if _, err := tray.host.Insert("nation", rows); err != nil {
		t.Fatal(err)
	}
	_, _, later := planned(t, tray, sql)
	if got := later.shards["nation"][0].ShardMap().Policy; got != storage.HashSharded {
		t.Fatalf("the reload left nation %v; the test needs it to flip to hash-sharded", got)
	}

	for i := 0; i < tray.NumNodes(); i++ {
		bound, _, err := q.bind(tree, i)
		if err != nil {
			t.Fatal(err)
		}
		leaves := scans(bound)
		if len(leaves) != 2 {
			t.Fatalf("node %d: %d scans in the self-join, want 2", i, len(leaves))
		}
		for _, s := range leaves {
			if s.Table != resolved[i] || s.Table.ShardMap() != resolved[0].ShardMap() {
				t.Errorf("node %d scans a %v shard of %d rows from another load than the one resolved",
					i, s.Table.ShardMap().Policy, s.Table.Rows())
			}
		}
	}
}

// TestBoundTreeDiffersOnlyAtItsLeaves: over every TPC-H plan, node i's copy
// of the planned tree has the same operators, sharing their expressions, over
// Scans of node i's shards; an exchange leaf stays the one leaf, its share for
// node i handed to the compiler beside the tree.
func TestBoundTreeDiffersOnlyAtItsLeaves(t *testing.T) {
	tray := tpchTray(t)
	var above func(name string, a, b plan.Node)
	above = func(name string, a, b plan.Node) {
		ak, bk := a.Children(), b.Children()
		if reflect.TypeOf(a) != reflect.TypeOf(b) || len(ak) != len(bk) {
			t.Fatalf("%s: %s bound as %s", name, a, b)
		}
		if len(ak) == 0 {
			return
		}
		// Over the planned node's children the bound operator is the planned
		// one: nothing but its inputs was touched.
		if back, err := plan.WithChildren(b, ak...); err != nil || !reflect.DeepEqual(back, a) {
			t.Errorf("%s: %s differs from the planned %s above the leaves (err %v)", name, b, a, err)
		}
		for k := range ak {
			above(name, ak[k], bk[k])
		}
	}
	for _, tq := range tpch.Queries() {
		_, tree, q := planned(t, tray, tq.SQL)
		for i := 0; i < tray.NumNodes(); i++ {
			bound, inputs, err := q.bind(tree, i)
			if err != nil {
				t.Fatalf("%s: %v", tq.Name, err)
			}
			if len(inputs) != 0 {
				t.Errorf("%s: a tree without exchange leaves bound %d inputs", tq.Name, len(inputs))
			}
			above(tq.Name, tree, bound)
			want := scans(tree)
			for k, s := range scans(bound) {
				p := want[k]
				if s.Table != q.shards[p.Table.Name()][i] || s.SCN != p.SCN || !reflect.DeepEqual(s.Cols, p.Cols) {
					t.Errorf("%s: node %d: %s is not the planned scan over node %d's shard", tq.Name, i, s, i)
				}
			}
		}
	}

	_, tree, q := planned(t, tray, `SELECT l_orderkey FROM lineitem WHERE l_quantity < 5`)
	fields := tree.Schema()
	cols, data := make([]ops.Col, len(fields)), make([]coltypes.Data, len(fields))
	for c, f := range fields {
		cols[c], data[c] = ops.Col{Name: f.Name, Type: f.Type, Dict: f.Dict}, coltypes.Of([]int64{})
	}
	parts := make([]*ops.Relation, tray.NumNodes())
	for i := range parts {
		parts[i] = ops.MustRelation(cols, data)
	}
	leaf := placed(parts, layout{}).tree
	join := &plan.Join{Left: tree, Right: leaf, LeftKeys: []int{0}, RightKeys: []int{0}}
	for i := range parts {
		bound, inputs, err := q.bind(join, i)
		if err != nil {
			t.Fatal(err)
		}
		if bound.Children()[1] != leaf || len(inputs) != 1 || inputs[leaf] != parts[i] {
			t.Errorf("node %d: the exchange leaf was not bound to its share", i)
		}
		above("join over an exchange", join, bound)
	}
}

// TestTreeBytesPricesASideByTheCompilersRows: align prices a side that is
// still a tree by the compiler's row estimate of each node's compiled copy. 39 orders
// pass o_orderkey < 40, 624 B at the 8-byte wire width over the 4 nodes; a
// fixed 0.3 filter selectivity priced them at 900 rows (14.4 KB). An exchange
// output counts its exact rows.
func TestTreeBytesPricesASideByTheCompilersRows(t *testing.T) {
	tray := tpchTray(t)
	const sql = `SELECT o_orderkey, o_custkey FROM orders WHERE o_orderkey < 40`
	_, tree, q := planned(t, tray, sql)
	q.nctx = make([]*qef.Context, 4)
	want, err := tray.host.Query(sql, hostdb.QueryOptions{Mode: hostdb.ForceHost})
	if err != nil {
		t.Fatal(err)
	}
	exact := relBytes(want.Rel)
	priced := func(tree plan.Node) int64 {
		copies, err := q.compile(tree, false)
		if err != nil {
			t.Fatal(err)
		}
		return treeBytes(copies, len(tree.Schema()))
	}
	if got := priced(tree); got > 2*exact || 2*got < exact {
		t.Errorf("priced at %d B, exactly %d B: not within 2x", got, exact)
	}

	parts := make([]*ops.Relation, 4)
	for i := range parts {
		parts[i] = sliceModulo(want.Rel, i, len(parts))
	}
	if got := priced(placed(parts, layout{}).tree); got != partsBytes(parts) {
		t.Errorf("exchange output priced at %d B, exactly %d B", got, partsBytes(parts))
	}
}
