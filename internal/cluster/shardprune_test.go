package cluster_test

import (
	"strings"
	"testing"

	"rapid/internal/cluster"
	"rapid/internal/coltypes"
	"rapid/internal/hostdb"
	"rapid/internal/qef"
	"rapid/internal/storage"
)

// rangeShardedTray builds a 3-node tray over a 300-row table range-sharded
// on id with bounds {100, 200}: node 0 holds id 0..99, node 1 100..199,
// node 2 200..299.
func rangeShardedTray(t *testing.T) (*hostdb.Database, *cluster.Tray) {
	t.Helper()
	db := hostdb.New()
	schema := storage.MustSchema(
		storage.ColumnDef{Name: "id", Type: coltypes.Int()},
		storage.ColumnDef{Name: "val", Type: coltypes.Int()},
	)
	if _, err := db.CreateTable("m", schema); err != nil {
		t.Fatal(err)
	}
	rows := make([][]storage.Value, 300)
	for i := range rows {
		rows[i] = []storage.Value{storage.IntValue(int64(i)), storage.IntValue(int64(i * 2))}
	}
	if _, err := db.Insert("m", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Load("m", hostdb.LoadOptions{}); err != nil {
		t.Fatal(err)
	}
	tray, err := cluster.New(db, cluster.Config{Nodes: 3, ReplicateMaxRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tray.Load("m", &cluster.ShardSpec{
		Policy: storage.RangeSharded, Key: 0, Bounds: []int64{100, 200},
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tray.Close(); db.Close() })
	return db, tray
}

// TestShardZonePruning checks the coordinator-level prune: a predicate that
// only the first range shard can satisfy must skip the other two node
// fragments entirely, without changing the answer.
func TestShardZonePruning(t *testing.T) {
	_, tray := rangeShardedTray(t)
	sql := "SELECT id, val FROM m WHERE id < 50"

	on, err := tray.Query(sql, cluster.QueryOptions{Mode: qef.ModeX86, Analyze: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.Rel.Rows() != 50 {
		t.Fatalf("rows = %d, want 50", on.Rel.Rows())
	}
	if on.ShardsPruned != 2 {
		t.Fatalf("ShardsPruned = %d, want 2 (nodes holding id >= 100)", on.ShardsPruned)
	}
	if c := tray.Metrics().Counter("rapid_shards_pruned_total").Value(); c != 2 {
		t.Fatalf("rapid_shards_pruned_total = %d, want 2", c)
	}
	if !strings.Contains(on.Analyze, "shards_pruned=2") {
		t.Fatalf("EXPLAIN ANALYZE missing pruning line:\n%s", on.Analyze)
	}

	off, err := tray.Query(sql, cluster.QueryOptions{Mode: qef.ModeX86, DisablePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.ShardsPruned != 0 {
		t.Fatalf("DisablePruning still pruned %d shards", off.ShardsPruned)
	}
	sameBags(t, "pruned vs unpruned", off.Rel, on.Rel)

	// The skipped nodes must not have executed anything: zero cycles, zero
	// DMS traffic on the DPU run.
	don, err := tray.Query(sql, cluster.QueryOptions{Mode: qef.ModeDPU})
	if err != nil {
		t.Fatal(err)
	}
	idle := 0
	for _, ns := range don.PerNode {
		if ns.Cycles == 0 && ns.DMSReadBytes == 0 && ns.DMSWriteBytes == 0 {
			idle++
		}
	}
	if idle != 2 {
		t.Fatalf("pruned nodes billed work: per-node stats %+v", don.PerNode)
	}
}

// TestShardZonePruningAllShards checks the degenerate case: a contradiction
// prunes every fragment, and the result keeps its schema with zero rows.
func TestShardZonePruningAllShards(t *testing.T) {
	_, tray := rangeShardedTray(t)
	res, err := tray.Query("SELECT id, val FROM m WHERE id < 0", cluster.QueryOptions{Mode: qef.ModeX86})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Rows() != 0 || res.Rel.NumCols() != 2 {
		t.Fatalf("rel = %d rows x %d cols, want 0 x 2", res.Rel.Rows(), res.Rel.NumCols())
	}
	if res.ShardsPruned != 3 {
		t.Fatalf("ShardsPruned = %d, want 3", res.ShardsPruned)
	}
}

// TestShardZonePruningSparesAggregations pins the soundness guard: scalar
// aggregations over an emptied shard still produce identity rows, so the
// coordinator must never shard-prune a distributed group-by fragment even
// when every zone rejects the predicate.
func TestShardZonePruningSparesAggregations(t *testing.T) {
	_, tray := rangeShardedTray(t)
	res, err := tray.Query("SELECT COUNT(*), MIN(id) FROM m WHERE id < 0", cluster.QueryOptions{Mode: qef.ModeX86})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardsPruned != 0 {
		t.Fatalf("aggregation fragments were shard-pruned (%d)", res.ShardsPruned)
	}
	if res.Rel.Rows() != 1 {
		t.Fatalf("scalar aggregate rows = %d, want 1", res.Rel.Rows())
	}
	if got := res.Rel.Col(0).Get(0); got != 0 {
		t.Fatalf("COUNT(*) = %d, want 0", got)
	}
}
