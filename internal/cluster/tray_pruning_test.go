package cluster_test

import (
	"fmt"
	"strings"
	"testing"

	"rapid/internal/cluster"
	"rapid/internal/coltypes"
	"rapid/internal/hostdb"
	"rapid/internal/qef"
	"rapid/internal/storage"
)

// hashShardedTray builds a tray of the given width over a table m(id, val)
// of 2*DefaultChunkRows rows per node, id = 0, 1, 2, … in insertion order,
// loaded as production loads it (Load(table, nil)) with replication off, so
// it is hash-sharded on id. Node i holds the ids congruent to i, ascending,
// in two chunks: every id below 50 lies in a node's first chunk.
func hashShardedTray(t *testing.T, nodes int) *cluster.Tray {
	t.Helper()
	db := hostdb.New()
	schema := storage.MustSchema(
		storage.ColumnDef{Name: "id", Type: coltypes.Int()},
		storage.ColumnDef{Name: "val", Type: coltypes.Int()},
	)
	if _, err := db.CreateTable("m", schema); err != nil {
		t.Fatal(err)
	}
	rows := make([][]storage.Value, 2*storage.DefaultChunkRows*nodes)
	for i := range rows {
		rows[i] = []storage.Value{storage.IntValue(int64(i)), storage.IntValue(int64(i * 2))}
	}
	if _, err := db.Insert("m", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Load("m", hostdb.LoadOptions{}); err != nil {
		t.Fatal(err)
	}
	tray, err := cluster.New(db, cluster.Config{Nodes: nodes, ReplicateMaxRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tray.Close(); db.Close() })
	if err := tray.Load("m", nil); err != nil {
		t.Fatal(err)
	}
	return tray
}

// TestTrayTilePruningEmptiesEveryNode: a filter no row passes returns zero
// rows with the query's two columns, and on every node the tile zone maps
// skip every tile of the scan.
func TestTrayTilePruningEmptiesEveryNode(t *testing.T) {
	for _, nodes := range nodeSweep(t, []int{1, 3}) {
		tray := hashShardedTray(t, nodes)
		res, err := tray.Query("SELECT id, val FROM m WHERE id < 0", cluster.QueryOptions{Mode: qef.ModeX86, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rel.Rows() != 0 || res.Rel.NumCols() != 2 {
			t.Fatalf("nodes=%d: rel = %d rows x %d cols, want 0 x 2", nodes, res.Rel.Rows(), res.Rel.NumCols())
		}
		if res.TilesPruned != int64(2*nodes) {
			t.Fatalf("nodes=%d: TilesPruned = %d, want %d", nodes, res.TilesPruned, 2*nodes)
		}
		ran := 0
		for _, step := range res.Trace {
			for i, prof := range step.NodeProfiles {
				if prof == nil {
					continue
				}
				ran++
				if prof.TilesTotal() != 2 || prof.TilesPruned() != 2 {
					t.Fatalf("nodes=%d: node %d (%s) pruned %d of %d tiles, want 2 of 2",
						nodes, i, step.Label, prof.TilesPruned(), prof.TilesTotal())
				}
			}
		}
		if ran != nodes {
			t.Fatalf("nodes=%d: %d node fragments ran, want one per node", nodes, ran)
		}
	}
}

// TestTrayTilePruningKeepsScalarIdentity: a scalar aggregation over a filter
// no row passes still yields its one identity row, COUNT(*) = 0.
func TestTrayTilePruningKeepsScalarIdentity(t *testing.T) {
	for _, nodes := range nodeSweep(t, []int{1, 3}) {
		tray := hashShardedTray(t, nodes)
		res, err := tray.Query("SELECT COUNT(*), MIN(id) FROM m WHERE id < 0", cluster.QueryOptions{Mode: qef.ModeX86})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rel.Rows() != 1 {
			t.Fatalf("nodes=%d: scalar aggregate rows = %d, want 1", nodes, res.Rel.Rows())
		}
		if got := res.Rel.Col(0).Get(0); got != 0 {
			t.Fatalf("nodes=%d: COUNT(*) = %d, want 0", nodes, got)
		}
	}
}

// TestTrayTilePruningKeepsTheBag: a selective filter skips each node's
// second tile, says so on the distributed EXPLAIN ANALYZE Pruning: line, and
// returns the bag its DisablePruning run returns.
func TestTrayTilePruningKeepsTheBag(t *testing.T) {
	const sql = "SELECT id, val FROM m WHERE id < 50"
	for _, nodes := range nodeSweep(t, []int{1, 3}) {
		tray := hashShardedTray(t, nodes)
		on, err := tray.Query(sql, cluster.QueryOptions{Mode: qef.ModeX86, Analyze: true})
		if err != nil {
			t.Fatal(err)
		}
		if on.Rel.Rows() != 50 {
			t.Fatalf("nodes=%d: rows = %d, want 50", nodes, on.Rel.Rows())
		}
		if on.TilesPruned != int64(nodes) {
			t.Fatalf("nodes=%d: TilesPruned = %d, want one per node", nodes, on.TilesPruned)
		}
		if line := fmt.Sprintf("Pruning: tiles_pruned=%d via zone maps\n", nodes); !strings.Contains(on.Analyze, line) {
			t.Fatalf("nodes=%d: EXPLAIN ANALYZE lacks %q:\n%s", nodes, line, on.Analyze)
		}
		off, err := tray.Query(sql, cluster.QueryOptions{Mode: qef.ModeX86, DisablePruning: true})
		if err != nil {
			t.Fatal(err)
		}
		if off.TilesPruned != 0 {
			t.Fatalf("nodes=%d: DisablePruning still pruned %d tiles", nodes, off.TilesPruned)
		}
		sameBags(t, fmt.Sprintf("nodes=%d: pruned vs unpruned", nodes), off.Rel, on.Rel)
	}
}
