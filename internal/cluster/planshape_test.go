package cluster_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"rapid/internal/cluster"
	"rapid/internal/hostdb"
	"rapid/internal/obs"
	"rapid/internal/qef"
	"rapid/internal/tpch"
)

// parentNetBytes is Result.NetBytes of every TPC-H statement on tpchHost's
// data (SF 0.002, seed 42, auto sharding) at commit 092e803, captured by
// running this loop there — before exchanges were decided once and by bytes.
var parentNetBytes = map[int]map[string]int64{
	4: {"Q1": 1248, "Q3": 17792, "Q4": 320, "Q5": 27696, "Q6": 64, "Q10": 10944,
		"Q12": 192, "Q14": 4000, "Q18": 2101824, "Q19": 31888, "Q21lite": 0},
	8: {"Q1": 2496, "Q3": 20352, "Q4": 592, "Q5": 32352, "Q6": 128, "Q10": 11840,
		"Q12": 360, "Q14": 4736, "Q18": 2322144, "Q19": 36896, "Q21lite": 0},
}

// TestExchangesRunOnceAndMoveNoMoreThanBefore: on 4 and 8 nodes, no TPC-H
// statement executes the same exchange twice (the parent ran Q18's 12 k-row
// shuffle three times and kept one), the exchange counter advances by exactly
// the exchanges reported, and no statement puts more bytes on the link than
// it did at the parent. Q18 no longer moves its lineitem ⋈ orders output at
// all: the sub-query, the semi-join and the outer group-by stay on the nodes.
// Its semi-join sits on orders, under lineitem ⋈ orders, so what meets
// customer is only the orders the sub-query names: at 4 nodes customer is
// broadcast to it, at 8 nodes it is shuffled to customer, whichever puts
// fewer bytes on the link.
func TestExchangesRunOnceAndMoveNoMoreThanBefore(t *testing.T) {
	db := tpchHost(t)
	lineitem, err := db.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	customer, err := db.Table("customer")
	if err != nil {
		t.Fatal(err)
	}
	q18Exchange := map[int]string{4: "broadcast right (small side)", 8: "shuffle left by key[0] to hash"}
	for _, nodes := range []int{4, 8} {
		reg := obs.NewRegistry()
		tray := newTray(t, db, cluster.Config{Nodes: nodes, Metrics: reg})
		exchanges := reg.Counter("rapid_net_exchanges_total")
		for _, q := range tpch.Queries() {
			before := exchanges.Value()
			res, err := tray.Query(q.SQL, cluster.QueryOptions{Mode: qef.ModeX86, NoCache: true, Analyze: true})
			if err != nil {
				t.Fatalf("%d nodes %s: %v", nodes, q.Name, err)
			}
			if d := exchanges.Value() - before; d != int64(len(res.Exchanges)) {
				t.Errorf("%d nodes %s: rapid_net_exchanges_total advanced by %d, %d exchanges reported", nodes, q.Name, d, len(res.Exchanges))
			}
			seen := map[string]bool{}
			for _, ex := range res.Exchanges {
				key := fmt.Sprintf("%s %s rows=%d", ex.Kind, ex.Label, ex.RowsIn)
				if seen[key] {
					t.Errorf("%d nodes %s: exchange %q ran more than once:\n%s", nodes, q.Name, key, res.Analyze)
				}
				seen[key] = true
			}
			want, ok := parentNetBytes[nodes][q.Name]
			if !ok {
				t.Fatalf("no parent NetBytes recorded for %s", q.Name)
			}
			if res.NetBytes > want {
				t.Errorf("%d nodes %s: NetBytes = %d, the parent moved %d:\n%s", nodes, q.Name, res.NetBytes, want, res.Analyze)
			}
			if q.Name != "Q18" {
				continue
			}
			// Broadcasting customer's two columns puts this on the link.
			broadcast := int64(customer.Rows()) * 2 * 8 * int64(nodes-1)
			var colocating []string
			for _, ex := range res.Exchanges {
				if ex.RowsIn >= int64(lineitem.Rows()) {
					t.Errorf("%d nodes Q18: %s %q carries %d rows — the lineitem ⋈ orders output (%d rows) still crosses the link:\n%s",
						nodes, ex.Kind, ex.Label, ex.RowsIn, lineitem.Rows(), res.Analyze)
				}
				if ex.Kind == "gather" {
					continue
				}
				colocating = append(colocating, ex.Kind+" "+ex.Label)
				if ex.MovedBytes > broadcast {
					t.Errorf("%d nodes Q18: %s %q moved %d bytes; broadcasting customer moves %d", nodes, ex.Kind, ex.Label, ex.MovedBytes, broadcast)
				}
			}
			if want := []string{q18Exchange[nodes]}; !slices.Equal(colocating, want) {
				t.Errorf("%d nodes Q18: exchanges before the result %q, want %q:\n%s", nodes, colocating, want, res.Analyze)
			}
			if strings.Contains(res.Analyze, "coordinator Join") || strings.Contains(res.Analyze, "merge group-by") {
				t.Errorf("%d nodes Q18: semi-join or aggregation still merges at the coordinator:\n%s", nodes, res.Analyze)
			}
			if res.NetBytes > want/50 {
				t.Errorf("%d nodes Q18: NetBytes = %d, want under 2%% of the parent's %d", nodes, res.NetBytes, want)
			}
		}
	}
}

// TestReplicatedLeftOuterJoinUnderGroupBy: a replicated table LEFT (or SEMI,
// or ANTI) joined to a partitioned one is made node-local by broadcasting the
// right and row-slicing the left, so the join's output is on no partition key
// — a group-by above it (nested under the HAVING filter, where locality is
// classified before anything runs) must take the partial + merge path, not be
// classified node-local on the right's shard key and fail once the broadcast
// has run.
func TestReplicatedLeftOuterJoinUnderGroupBy(t *testing.T) {
	db := tpchHost(t)
	for _, nodes := range []int{4, 8} {
		tray := newTray(t, db, cluster.Config{Nodes: nodes})
		for _, sql := range []string{
			`SELECT c_custkey, COUNT(*) AS n, SUM(n_regionkey) AS r
FROM nation LEFT JOIN customer ON (n_nationkey = c_nationkey)
GROUP BY c_custkey HAVING COUNT(*) > 0`,
			`SELECT n_regionkey, COUNT(*) AS n FROM nation
WHERE n_nationkey IN (SELECT c_nationkey FROM customer WHERE c_acctbal > 9000)
GROUP BY n_regionkey HAVING COUNT(*) > 0`,
			`SELECT n_regionkey, COUNT(*) AS n FROM nation
WHERE n_nationkey NOT IN (SELECT c_nationkey FROM customer WHERE c_acctbal > 9000)
GROUP BY n_regionkey HAVING COUNT(*) > 0`,
		} {
			want, err := db.Query(sql, hostdb.QueryOptions{Mode: hostdb.ForceHost})
			if err != nil {
				t.Fatal(err)
			}
			got, err := tray.Query(sql, cluster.QueryOptions{Mode: qef.ModeX86, NoCache: true, Analyze: true})
			if err != nil {
				t.Fatalf("%d nodes: %v\n%s", nodes, err, sql)
			}
			sameBags(t, fmt.Sprintf("%d nodes %s", nodes, sql), want.Rel, got.Rel)
			if !strings.Contains(got.Analyze, "merge group-by") {
				t.Errorf("%d nodes: the group-by did not merge partials at the coordinator:\n%s", nodes, got.Analyze)
			}
		}
	}
}

// TestBroadcastDecidedByExactBytes: orders (not on its join key) meets
// customer (on it) under a filter every customer row passes. The filter
// compares an expression, which column statistics cannot price, so the
// compiler takes it for selective (0.3) and prices customer's broadcast under
// the orders shuffle; customer's exact size, known once it is materialised, is
// over it — so the shuffle runs, and the link carries no more than it would
// have without the byte rule. The statement reads c_acctbal above the join,
// so that customer ships two live columns.
func TestBroadcastDecidedByExactBytes(t *testing.T) {
	tray := newTray(t, tpchHost(t), cluster.Config{Nodes: 4})
	res, err := tray.Query(`SELECT COUNT(*), SUM(o_totalprice), SUM(c_acctbal) FROM orders, customer
WHERE o_custkey = c_custkey AND c_acctbal + 2000 > 0 AND o_orderdate < DATE '1993-06-01'`,
		cluster.QueryOptions{Mode: qef.ModeX86, NoCache: true, Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Analyze, "fragment broadcast input") {
		t.Fatalf("the estimate did not favour the broadcast; the query no longer exercises the exact re-check:\n%s", res.Analyze)
	}
	var shuffled int64
	for _, ex := range res.Exchanges {
		switch ex.Kind {
		case "broadcast":
			t.Errorf("broadcast %q of %d bytes:\n%s", ex.Label, ex.MovedBytes, res.Analyze)
		case "shuffle":
			shuffled += ex.MovedBytes
		}
	}
	customer, err := tpchHost(t).Table("customer")
	if err != nil {
		t.Fatal(err)
	}
	if broadcast := int64(customer.Rows()) * 2 * 8 * 3; shuffled == 0 || shuffled >= broadcast {
		t.Errorf("shuffled %d bytes; broadcasting customer's two columns to 3 other nodes is %d:\n%s", shuffled, broadcast, res.Analyze)
	}
}

// TestSemiJoinLiftedOverItsJoins: a semi or anti join the binder placed under
// inner joins, whose sub-query is not node-local (it groups on a column its
// table is not sharded on) and large, is lifted back above those joins and
// runs at the coordinator over their output. Each statement's net bytes and
// cycles are no more than at commit 6ca1ff4, whose binder placed the join
// above the whole FROM tree (ModeDPU, tpchHost). Left under the joins, the
// join keeps them all off the nodes, and the coordinator gathers their raw
// inputs: 1.5–1.7x the bytes at 4 nodes. The keys sit on the left input of
// a join that filters, and on the right input of a join of three tables.
func TestSemiJoinLiftedOverItsJoins(t *testing.T) {
	db := tpchHost(t)
	type bill struct{ net, cycles int64 }
	for _, c := range []struct {
		sql    string
		parent map[int]bill // by tray width
	}{
		{`SELECT COUNT(*), SUM(l_quantity) FROM lineitem, part
WHERE l_partkey = p_partkey AND p_size < 10
  AND l_suppkey IN (SELECT l_suppkey FROM lineitem GROUP BY l_suppkey, l_partkey HAVING SUM(l_quantity) > 30)`,
			map[int]bill{4: {265768, 730412}, 8: {319520, 889379}}},
		{`SELECT COUNT(*), SUM(l_quantity) FROM lineitem, part
WHERE l_partkey = p_partkey AND p_size < 10
  AND l_partkey NOT IN (SELECT l_suppkey FROM lineitem GROUP BY l_suppkey, l_partkey)`,
			map[int]bill{4: {191632, 637902}, 8: {229216, 796869}}},
		{`SELECT COUNT(*) AS n, c_nationkey FROM lineitem, orders, customer
WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey AND c_mktsegment = 'BUILDING'
  AND c_custkey IN (SELECT l_partkey FROM lineitem GROUP BY l_partkey, l_suppkey)
GROUP BY c_nationkey`,
			map[int]bill{4: {231992, 1252472}, 8: {270184, 1540700}}},
		{`SELECT COUNT(*) AS n, c_nationkey FROM lineitem, orders, customer
WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey AND c_mktsegment = 'BUILDING'
  AND c_custkey NOT IN (SELECT l_suppkey FROM lineitem GROUP BY l_suppkey, l_partkey)
GROUP BY c_nationkey`,
			map[int]bill{4: {231992, 1196551}, 8: {270184, 1484779}}},
	} {
		want, err := db.Query(c.sql, hostdb.QueryOptions{Mode: hostdb.ForceHost})
		if err != nil {
			t.Fatal(err)
		}
		if want.Rel.Rows() == 0 || want.Rel.Get(0, 0) == 0 {
			t.Fatalf("the host's answer is empty; the statement checks nothing:\n%s", c.sql)
		}
		for _, nodes := range []int{4, 8} {
			tray := newTray(t, db, cluster.Config{Nodes: nodes})
			got, err := tray.Query(c.sql, cluster.QueryOptions{Mode: qef.ModeDPU, NoCache: true, Analyze: true})
			if err != nil {
				t.Fatalf("%d nodes: %v\n%s", nodes, err, c.sql)
			}
			label := fmt.Sprintf("%d nodes %s", nodes, c.sql)
			sameBags(t, label, want.Rel, got.Rel)
			if p := c.parent[nodes]; got.NetBytes > p.net || got.Cycles > p.cycles {
				t.Errorf("%s: %d net bytes and %d cycles; placed above the joins it moved %d and billed %d:\n%s",
					label, got.NetBytes, got.Cycles, p.net, p.cycles, got.Analyze)
			}
		}
	}
}

// TestCoordinatorCompilesOnce: on 1, 2 and 4 nodes, what a TPC-H statement
// leaves above its node-local subtrees compiles once and runs as one
// coordinator fragment, so the trace shows at most one coordinator step. It
// is lowered as on one SoC: the ORDER BY … LIMIT of Q3, Q10, Q18 and Q21lite
// is a Top-K there, never a full sort of every merged group.
func TestCoordinatorCompilesOnce(t *testing.T) {
	db := tpchHost(t)
	topK := map[string]bool{"Q3": true, "Q10": true, "Q18": true, "Q21lite": true}
	for _, nodes := range []int{1, 2, 4} {
		tray := newTray(t, db, cluster.Config{Nodes: nodes})
		for _, q := range tpch.Queries() {
			res, err := tray.Query(q.SQL, cluster.QueryOptions{Mode: qef.ModeDPU, NoCache: true, Trace: true})
			if err != nil {
				t.Fatalf("%d nodes %s: %v", nodes, q.Name, err)
			}
			var coord []*obs.Profile
			for _, st := range res.Trace {
				if st.Coord != nil {
					coord = append(coord, st.Coord)
				}
			}
			if len(coord) > 1 {
				t.Errorf("%d nodes %s: %d coordinator steps, want at most one", nodes, q.Name, len(coord))
			}
			if !topK[q.Name] {
				continue
			}
			if len(coord) != 1 {
				t.Errorf("%d nodes %s: no single coordinator fragment", nodes, q.Name)
				continue
			}
			ops := map[string]int{}
			for _, d := range coord[0].Defs {
				ops[d.Name]++
			}
			if ops["TopK"] != 1 || ops["Sort"] != 0 {
				t.Errorf("%d nodes %s: the coordinator runs %d TopK and %d Sort, want a Top-K and no sort:\n%s",
					nodes, q.Name, ops["TopK"], ops["Sort"], coord[0].Format())
			}
		}
	}
}
