package cluster_test

import (
	"fmt"
	"strings"
	"testing"

	"rapid/internal/cluster"
	"rapid/internal/coltypes"
	"rapid/internal/hostdb"
	"rapid/internal/ops"
	"rapid/internal/qef"
	"rapid/internal/storage"
)

// partialsTray loads t(id, g, v) — 400 rows, five groups g, values v of
// both signs — on a single SoC and, hash-sharded on id, on a 3-node tray, so
// that every aggregation by g runs as per-node partials merged at the
// coordinator.
func partialsTray(t *testing.T) (*hostdb.Database, *cluster.Tray) {
	t.Helper()
	db := hostdb.New()
	schema := storage.MustSchema(
		storage.ColumnDef{Name: "id", Type: coltypes.Int()},
		storage.ColumnDef{Name: "g", Type: coltypes.Int()},
		storage.ColumnDef{Name: "v", Type: coltypes.Int()},
	)
	if _, err := db.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	rows := make([][]storage.Value, 400)
	for i := range rows {
		rows[i] = []storage.Value{storage.IntValue(int64(i)), storage.IntValue(int64(4 - i%5)), storage.IntValue(int64(i*37%101 - 50))}
	}
	if _, err := db.Insert("t", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Load("t", hostdb.LoadOptions{}); err != nil {
		t.Fatal(err)
	}
	tray, err := cluster.New(db, cluster.Config{Nodes: 3, ReplicateMaxRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tray.Load("t", nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tray.Close(); db.Close() })
	return db, tray
}

// TestMergedPartialsMatchTheSingleSoC: the coordinator folds the nodes'
// partials through the single SoC's group merger, so a low-NDV group-by
// returns the single SoC's rows in the same order, and a scalar MIN/MAX over
// shards some of which match nothing ignores those shards' empty partials.
func TestMergedPartialsMatchTheSingleSoC(t *testing.T) {
	db, tray := partialsTray(t)
	for _, sql := range []string{
		"SELECT g, SUM(v), MIN(v), MAX(v), COUNT(*), COUNT(v), AVG(v) FROM t GROUP BY g",
		"SELECT g, MIN(v), MAX(v) FROM t WHERE id < 7 GROUP BY g",
		"SELECT MIN(v), MAX(v), SUM(v), COUNT(*), AVG(v) FROM t WHERE id IN (3, 4)",
		"SELECT MIN(v), MAX(v), SUM(v), COUNT(*), AVG(v) FROM t WHERE id < 0",
	} {
		want, err := db.Query(sql, hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeX86})
		if err != nil {
			t.Fatalf("single SoC %q: %v", sql, err)
		}
		got, err := tray.Query(sql, cluster.QueryOptions{Mode: qef.ModeX86, Analyze: true})
		if err != nil {
			t.Fatalf("tray %q: %v", sql, err)
		}
		if !strings.Contains(got.Analyze, "merge group-by") {
			t.Fatalf("%q did not merge partials at the coordinator:\n%s", sql, got.Analyze)
		}
		if w, g := render(want.Rel.Flat()), render(got.Rel.Flat()); w != g {
			t.Errorf("%q:\nsingle SoC %s\ntray       %s", sql, w, g)
		}
	}
	// Two rows on three nodes: at least one node matches nothing, and its 0
	// sentinels stay out of MIN and MAX (ids 3 and 4 hold v = -40 and -3, all
	// below zero; negated, all above).
	res, err := tray.Query("SELECT MIN(0 - v), MAX(v) FROM t WHERE id IN (3, 4)", cluster.QueryOptions{Mode: qef.ModeX86})
	if err != nil {
		t.Fatal(err)
	}
	if got := render(res.Rel.Flat()); got != "[[3 -3]]" {
		t.Errorf("MIN(0 - v), MAX(v) over ids 3 and 4 = %s, want [[3 -3]]", got)
	}
}

// render lists a relation's raw rows in order.
func render(rel *ops.Relation) string {
	rows := make([][]int64, rel.Rows())
	for r := range rows {
		for c := 0; c < rel.NumCols(); c++ {
			rows[r] = append(rows[r], rel.Get(r, c))
		}
	}
	return fmt.Sprint(rows)
}
