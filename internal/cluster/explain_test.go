package cluster_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rapid/internal/cluster"
	"rapid/internal/coltypes"
	"rapid/internal/hostdb"
	"rapid/internal/qef"
	"rapid/internal/storage"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// explainDB builds a small self-contained host database: a fact table
// hash-sharded on k and a second partitioned table joined on a different
// column, so the distributed plan needs an exchange to co-locate the join, a
// gather and a partial-aggregation merge.
func explainDB(t *testing.T) *hostdb.Database {
	t.Helper()
	db := hostdb.New()
	t.Cleanup(db.Close)
	mk := func(name string, rows [][]storage.Value, cols ...storage.ColumnDef) {
		if _, err := db.CreateTable(name, storage.MustSchema(cols...)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Insert(name, rows); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Load(name, hostdb.LoadOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	var facts [][]storage.Value
	for i := 0; i < 3000; i++ {
		facts = append(facts, []storage.Value{
			storage.IntValue(int64(i % 97)),
			storage.IntValue(int64(i % 11)),
			storage.IntValue(int64(i)),
		})
	}
	mk("facts", facts,
		storage.ColumnDef{Name: "k", Type: coltypes.Int()},
		storage.ColumnDef{Name: "g", Type: coltypes.Int()},
		storage.ColumnDef{Name: "v", Type: coltypes.Int()},
	)
	var dims [][]storage.Value
	for i := 0; i < 11; i++ {
		dims = append(dims, []storage.Value{
			storage.IntValue(int64(i)),
			storage.IntValue(int64(i * 10)),
		})
	}
	mk("dims", dims,
		storage.ColumnDef{Name: "dg", Type: coltypes.Int()},
		storage.ColumnDef{Name: "w", Type: coltypes.Int()},
	)
	return db
}

// TestDistributedExplainAnalyzeGolden pins the EXPLAIN ANALYZE report of a
// distributed plan: the trace of node-local fragments and exchanges, one
// span per exchange with rows/bytes/tiles/link-time, the per-node
// cycle/DMS/sim breakdown and the makespan decomposition. Everything in the
// report is modeled (ModeDPU), so it is bit-deterministic; regenerate with
// -update after intentional planner or accounting changes.
//
// Re-captured when the side to move became a choice by bytes: facts (3000
// rows) is the side that is off its join key, and the plan used to shuffle
// it to dims' partitioning (36000 bytes); broadcasting the 8 filtered dims
// rows costs 384, so facts now stays where it was materialised. Its groups
// are then no longer concentrated by g, so every node reports all 8 partial
// groups to the merge instead of 2.
func TestDistributedExplainAnalyzeGolden(t *testing.T) {
	db := explainDB(t)
	tray, err := cluster.New(db, cluster.Config{Nodes: 4, ReplicateMaxRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tray.Close)
	for _, name := range []string{"facts", "dims"} {
		if err := tray.Load(name, nil); err != nil {
			t.Fatal(err)
		}
	}

	const sql = `EXPLAIN ANALYZE
SELECT g, SUM(v), COUNT(*) FROM facts, dims WHERE g = dg AND w < 80 GROUP BY g`
	res, err := tray.Query(sql, cluster.QueryOptions{Mode: qef.ModeDPU})
	if err != nil {
		t.Fatal(err)
	}
	if res.Analyze == "" {
		t.Fatal("EXPLAIN ANALYZE produced no report")
	}
	got := res.Analyze

	// The report must be reproducible run over run before comparing to the
	// golden file — a flaky golden is worse than none.
	for i := 0; i < 2; i++ {
		again, err := tray.Query(sql, cluster.QueryOptions{Mode: qef.ModeDPU})
		if err != nil {
			t.Fatal(err)
		}
		if again.Analyze != got {
			t.Fatalf("EXPLAIN ANALYZE not deterministic:\n--- first ---\n%s--- rerun %d ---\n%s", got, i, again.Analyze)
		}
	}

	path := filepath.Join("testdata", "explain_distributed.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("distributed EXPLAIN ANALYZE drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}

	// Structural spot checks, independent of the exact numbers.
	for _, frag := range []string{"Distributed Plan (nodes=4", "Trace:", "Exchanges:", "Per-node:", "node3", "Makespan:"} {
		if !strings.Contains(got, frag) {
			t.Errorf("report missing %q:\n%s", frag, got)
		}
	}
}
