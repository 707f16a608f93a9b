package hostdb

import (
	"strings"
	"testing"

	"rapid/internal/qef"
	"rapid/internal/storage"
)

// TestTilePruningOffload checks host-side zone-map pruning end to end: a
// range predicate on the clustered id column must skip every tile whose zone
// cannot match, bill nothing for the skipped tiles, surface the count in
// QueryResult.TilesPruned / rapid_tiles_pruned_total / the EXPLAIN ANALYZE
// profile — and never change the answer.
func TestTilePruningOffload(t *testing.T) {
	db := newTestDB(t, 4096) // ChunkRows 512 -> 8 tiles, id clustered 0..4095
	loadAll(t, db)
	sql := `SELECT id, grp FROM events WHERE id >= 3584`

	on, err := db.Query(sql, QueryOptions{Mode: ForceOffload, RapidMode: qef.ModeDPU, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.Rel.Rows() != 512 {
		t.Fatalf("rows = %d, want 512", on.Rel.Rows())
	}
	if on.TilesPruned != 7 {
		t.Fatalf("TilesPruned = %d, want 7 (tiles holding id < 3584)", on.TilesPruned)
	}
	if c := db.Metrics().Values()["rapid_tiles_pruned_total"]; c != 7 {
		t.Fatalf("rapid_tiles_pruned_total = %d, want 7", c)
	}
	if on.Profile == nil {
		t.Fatal("no profile")
	}
	if err := on.Profile.CheckInvariants(); err != nil {
		t.Fatalf("profile invariants with pruning: %v", err)
	}
	if txt := on.Profile.Format(); !strings.Contains(txt, "tiles_pruned 7/8") {
		t.Fatalf("EXPLAIN ANALYZE missing tiles_pruned line:\n%s", txt)
	}

	off, err := db.Query(sql, QueryOptions{Mode: ForceOffload, RapidMode: qef.ModeDPU, DisablePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.TilesPruned != 0 {
		t.Fatalf("DisablePruning still pruned %d tiles", off.TilesPruned)
	}
	if off.Rel.Rows() != on.Rel.Rows() {
		t.Fatalf("pruning changed the answer: %d vs %d rows", on.Rel.Rows(), off.Rel.Rows())
	}
	// Skipped tiles are unbilled: the pruned run must cost strictly less.
	if on.Cycles >= off.Cycles {
		t.Fatalf("pruned run billed %d cycles, unpruned %d", on.Cycles, off.Cycles)
	}
}

// TestPruningAfterUpdatePastMax is the end-to-end regression for the stale
// TableStats bug: update a row's id past the old maximum, checkpoint, and
// the offloaded point query for the new value must still find it — before
// the fix, zone/statistics state frozen at load time claimed the value out
// of range.
func TestPruningAfterUpdatePastMax(t *testing.T) {
	db := newTestDB(t, 2048)
	loadAll(t, db)

	if _, err := db.Update("events", 100, 0, storage.IntValue(1_000_000)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint("events"); err != nil {
		t.Fatal(err)
	}

	for _, opts := range []QueryOptions{
		{Mode: ForceOffload, RapidMode: qef.ModeX86, Profile: true},
		{Mode: ForceOffload, RapidMode: qef.ModeX86, DisablePruning: true},
	} {
		res, err := db.Query(`SELECT id FROM events WHERE id >= 1000000`, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rel.Rows() != 1 || res.Rel.Col(0).Get(0) != 1_000_000 {
			t.Fatalf("disablePruning=%v: updated row lost (rows=%d)", opts.DisablePruning, res.Rel.Rows())
		}
	}

	// Cost-model side of the same bug: the refreshed statistics must admit
	// the new value so the estimator no longer claims zero selectivity.
	tbl, err := db.Table("events")
	if err != nil {
		t.Fatal(err)
	}
	st := tbl.Rapid().Stats()
	if st == nil || st.Cols[0].Max < 1_000_000 {
		t.Fatalf("RAPID table stats stale after checkpoint: %+v", st)
	}
}
