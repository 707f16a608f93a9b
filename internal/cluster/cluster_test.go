package cluster_test

import (
	"flag"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"rapid/internal/cluster"
	"rapid/internal/hostdb"
	"rapid/internal/obs"
	"rapid/internal/ops"
	"rapid/internal/power"
	"rapid/internal/qef"
	"rapid/internal/tpch"
)

var (
	tpchOnce sync.Once
	tpchDB   *hostdb.Database

	// -cluster.nodes=1,4 restricts the identity batteries to specific tray
	// widths (the CI shard matrix runs one width per leg); empty keeps the
	// full default sweep.
	flagNodes = flag.String("cluster.nodes", "", "comma-separated tray node counts for the identity batteries (empty = default sweep)")
)

// nodeSweep returns the node counts a battery should run, honoring the
// -cluster.nodes override.
func nodeSweep(t *testing.T, def []int) []int {
	t.Helper()
	if *flagNodes == "" {
		return def
	}
	var out []int
	for _, s := range strings.Split(*flagNodes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			t.Fatalf("-cluster.nodes: bad node count %q", s)
		}
		out = append(out, n)
	}
	return out
}

// tpchHost returns a shared small TPC-H host database.
func tpchHost(t testing.TB) *hostdb.Database {
	t.Helper()
	tpchOnce.Do(func() {
		db := hostdb.New()
		if err := tpch.PopulateHostDB(db, tpch.Config{ScaleFactor: 0.002, Seed: 42}); err != nil {
			t.Fatal(err)
		}
		tpchDB = db
	})
	return tpchDB
}

// newTray builds a tray over the host and loads every TPC-H table with the
// auto policy (small dimensions replicate, facts hash-shard on column 0, so
// lineitem and orders co-partition on orderkey).
func newTray(t testing.TB, db *hostdb.Database, cfg cluster.Config) *cluster.Tray {
	t.Helper()
	tray, err := cluster.New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range tpch.TableNames() {
		if err := tray.Load(name, nil); err != nil {
			tray.Close()
			t.Fatalf("load %s: %v", name, err)
		}
	}
	t.Cleanup(tray.Close)
	return tray
}

// bag renders every row and returns the sorted multiset.
func bag(rel *ops.Relation) []string {
	rows := make([]string, rel.Rows())
	var sb strings.Builder
	for i := range rows {
		sb.Reset()
		for c := 0; c < rel.NumCols(); c++ {
			sb.WriteString(rel.Render(i, c))
			sb.WriteByte('|')
		}
		rows[i] = sb.String()
	}
	sort.Strings(rows)
	return rows
}

func sameBags(t *testing.T, label string, want, got *ops.Relation) {
	t.Helper()
	if want.NumCols() != got.NumCols() {
		t.Fatalf("%s: column count host=%d tray=%d", label, want.NumCols(), got.NumCols())
	}
	wb, gb := bag(want), bag(got)
	if len(wb) != len(gb) {
		t.Fatalf("%s: row count host=%d tray=%d", label, len(wb), len(gb))
	}
	for i := range wb {
		if wb[i] != gb[i] {
			t.Fatalf("%s: row %d differs:\nhost: %s\ntray: %s", label, i, wb[i], gb[i])
		}
	}
}

// TestTPCHDistributedIdentity is the acceptance battery: all TPC-H queries
// on trays of 1, 2, 4 and 8 nodes must return exactly the single-node
// result (the host row engine is the oracle).
func TestTPCHDistributedIdentity(t *testing.T) {
	db := tpchHost(t)
	for _, nodes := range nodeSweep(t, []int{1, 2, 4, 8}) {
		tray := newTray(t, db, cluster.Config{Nodes: nodes})
		for _, q := range tpch.Queries() {
			want, err := db.Query(q.SQL, hostdb.QueryOptions{Mode: hostdb.ForceHost})
			if err != nil {
				t.Fatalf("host %s: %v", q.Name, err)
			}
			got, err := tray.Query(q.SQL, cluster.QueryOptions{Mode: qef.ModeX86})
			if err != nil {
				t.Fatalf("tray(%d) %s: %v", nodes, q.Name, err)
			}
			sameBags(t, fmt.Sprintf("nodes=%d %s", nodes, q.Name), want.Rel, got.Rel)
		}
	}
}

// TestTPCHDistributedIdentityDPU spot-checks the simulated-DPU mode lane:
// aggregation-heavy and join-heavy queries on a 4-node tray.
func TestTPCHDistributedIdentityDPU(t *testing.T) {
	db := tpchHost(t)
	tray := newTray(t, db, cluster.Config{Nodes: 4})
	for _, name := range []string{"Q1", "Q6", "Q12", "Q14"} {
		q, ok := tpch.QueryByName(name)
		if !ok {
			t.Fatalf("unknown query %s", name)
		}
		want, err := db.Query(q.SQL, hostdb.QueryOptions{Mode: hostdb.ForceHost})
		if err != nil {
			t.Fatalf("host %s: %v", name, err)
		}
		got, err := tray.Query(q.SQL, cluster.QueryOptions{Mode: qef.ModeDPU})
		if err != nil {
			t.Fatalf("tray %s: %v", name, err)
		}
		sameBags(t, "dpu "+name, want.Rel, got.Rel)
	}
}

// TestShardedEverythingIdentity forces every table — including the tiny
// dimensions — onto the hash-sharding path (ReplicateMaxRows < 0), so
// repartitioning joins, broadcasts and empty shards are all exercised.
func TestShardedEverythingIdentity(t *testing.T) {
	db := tpchHost(t)
	for _, nodes := range nodeSweep(t, []int{2, 4, 8}) {
		tray := newTray(t, db, cluster.Config{Nodes: nodes, ReplicateMaxRows: -1})
		for _, q := range tpch.Queries() {
			want, err := db.Query(q.SQL, hostdb.QueryOptions{Mode: hostdb.ForceHost})
			if err != nil {
				t.Fatalf("host %s: %v", q.Name, err)
			}
			got, err := tray.Query(q.SQL, cluster.QueryOptions{Mode: qef.ModeX86})
			if err != nil {
				t.Fatalf("tray(%d) %s: %v", nodes, q.Name, err)
			}
			sameBags(t, fmt.Sprintf("sharded nodes=%d %s", nodes, q.Name), want.Rel, got.Rel)
		}
	}
}

// TestEveryTrayMetricCarriesHelpAndTheSlabsDrain: the tray's registry after a
// TPC-H pass on both lanes — four node schedulers, four slabs adding up in
// one gauge — has help text on every name, and Close empties every slab.
func TestEveryTrayMetricCarriesHelpAndTheSlabsDrain(t *testing.T) {
	tray := newTray(t, tpchHost(t), cluster.Config{Nodes: 4})
	for _, mode := range []qef.Mode{qef.ModeX86, qef.ModeDPU} {
		for _, q := range tpch.Queries() {
			if _, err := tray.Query(q.SQL, cluster.QueryOptions{Mode: mode}); err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
		}
	}
	for _, m := range tray.Metrics().Snapshot() {
		if m.Help == "" {
			t.Errorf("metric %s has no help text", m.Name)
		}
	}
	v := tray.Metrics().Values()
	if v["mem_slab_leases_total"] == 0 || v["mem_slab_retained_bytes"] <= 0 {
		t.Errorf("slabs: %d leases, %d bytes retained", v["mem_slab_leases_total"], v["mem_slab_retained_bytes"])
	}
	tray.Close()
	if got := tray.Metrics().Values()["mem_slab_retained_bytes"]; got != 0 {
		t.Errorf("%d slab bytes retained after Close", got)
	}
}

// TestNetAccountingReconciles checks the exchange accounting invariant: the
// per-exchange stats, the Result totals, the rapid_net_* counters and the
// energy decomposition must all describe the same bytes.
func TestNetAccountingReconciles(t *testing.T) {
	db := tpchHost(t)
	reg := obs.NewRegistry()
	tray := newTray(t, db, cluster.Config{Nodes: 4, ReplicateMaxRows: -1, Metrics: reg})

	counter := func(name string) int64 { return reg.Counter(name).Value() }
	beforeRows, beforeBytes := counter("rapid_net_rows_total"), counter("rapid_net_bytes_total")
	beforeTiles, beforeEx := counter("rapid_net_tiles_total"), counter("rapid_net_exchanges_total")

	q, _ := tpch.QueryByName("Q12") // lineitem ⋈ orders + group-by: shuffle, gather, partials
	res, err := tray.Query(q.SQL, cluster.QueryOptions{Mode: qef.ModeX86})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Exchanges) == 0 {
		t.Fatal("expected exchanges on a sharded join")
	}
	var rows, bytes, tiles int64
	var secs float64
	for _, ex := range res.Exchanges {
		rows += ex.MovedRows
		bytes += ex.MovedBytes
		tiles += ex.Tiles
		secs += ex.Seconds
	}
	if rows != res.NetRows || bytes != res.NetBytes || tiles != res.NetTiles {
		t.Fatalf("exchange sums (%d rows, %d bytes, %d tiles) != result totals (%d, %d, %d)",
			rows, bytes, tiles, res.NetRows, res.NetBytes, res.NetTiles)
	}
	if secs != res.NetSeconds {
		t.Fatalf("exchange seconds %v != net seconds %v", secs, res.NetSeconds)
	}
	if got, want := res.Energy.NetFJ, power.LinkEnergyFJ(res.NetBytes); got != want {
		t.Fatalf("net energy %d fJ != LinkEnergyFJ(%d) = %d", got, res.NetBytes, want)
	}
	if d := counter("rapid_net_rows_total") - beforeRows; d != res.NetRows {
		t.Fatalf("counter rows delta %d != %d", d, res.NetRows)
	}
	if d := counter("rapid_net_bytes_total") - beforeBytes; d != res.NetBytes {
		t.Fatalf("counter bytes delta %d != %d", d, res.NetBytes)
	}
	if d := counter("rapid_net_tiles_total") - beforeTiles; d != res.NetTiles {
		t.Fatalf("counter tiles delta %d != %d", d, res.NetTiles)
	}
	if d := counter("rapid_net_exchanges_total") - beforeEx; d != int64(len(res.Exchanges)) {
		t.Fatalf("counter exchanges delta %d != %d", d, len(res.Exchanges))
	}
	// The makespan decomposes exactly.
	if got := res.NodeSimSeconds + res.NetSeconds + res.CoordSimSeconds; got != res.SimSeconds {
		t.Fatalf("makespan %v != node %v + net %v + coord %v",
			res.SimSeconds, res.NodeSimSeconds, res.NetSeconds, res.CoordSimSeconds)
	}
}
