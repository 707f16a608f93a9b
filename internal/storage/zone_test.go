package storage

import (
	"testing"

	"rapid/internal/coltypes"
)

func TestChunkZonesAtBuild(t *testing.T) {
	tbl := simpleTable(t, 20) // id 0..19, val = id*10, ChunkRows 8
	s := tbl.Snapshot(LatestSCN)
	chunks := s.Chunks()
	if len(chunks) != 3 {
		t.Fatalf("chunks = %d, want 3", len(chunks))
	}
	// First chunk holds id 0..7, val 0..70.
	z, ok := chunks[0].Zone(0)
	if !ok || z.Min != 0 || z.Max != 7 {
		t.Fatalf("chunk0 id zone = %+v ok=%v", z, ok)
	}
	z, ok = chunks[0].Zone(1)
	if !ok || z.Min != 0 || z.Max != 70 {
		t.Fatalf("chunk0 val zone = %+v ok=%v", z, ok)
	}
	// Last (short) chunk holds id 16..19.
	z, ok = chunks[2].Zone(0)
	if !ok || z.Min != 16 || z.Max != 19 {
		t.Fatalf("chunk2 id zone = %+v ok=%v", z, ok)
	}
	if _, ok := chunks[0].Zone(9); ok {
		t.Fatal("out-of-range column must report no zone")
	}
}

func TestChunkViewZoneAfterUpdates(t *testing.T) {
	tbl := simpleTable(t, 20)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Patch col 1 of a row in chunk 0: that column's zone is invalidated for
	// the patched chunk only; col 0 and other chunks keep their zones.
	must(tbl.Tracker().Apply(UpdateUnit{SCN: 1, Patches: []CellPatch{
		{Row: 2, Col: 1, Val: 100000},
	}}))
	chunks := tbl.Snapshot(LatestSCN).Chunks()
	if _, ok := chunks[0].Zone(1); ok {
		t.Fatal("patched column must lose its zone")
	}
	if _, ok := chunks[0].Zone(0); !ok {
		t.Fatal("unpatched column must keep its zone")
	}
	if _, ok := chunks[1].Zone(1); !ok {
		t.Fatal("unpatched chunk must keep its zone")
	}

	// Deletes keep base zones: a superset zone can only under-prune.
	must(tbl.Tracker().Apply(UpdateUnit{SCN: 2, Deletes: []int{8}}))
	chunks = tbl.Snapshot(LatestSCN).Chunks()
	if z, ok := chunks[1].Zone(0); !ok || z.Min != 8 || z.Max != 15 {
		t.Fatalf("deleted chunk zone = %+v ok=%v", z, ok)
	}

	// Inserted rows surface through a delta chunk with no zones (never
	// prunable).
	must(tbl.Tracker().Apply(UpdateUnit{SCN: 3, Inserts: [][]int64{{500, 5000}}}))
	chunks = tbl.Snapshot(LatestSCN).Chunks()
	last := chunks[len(chunks)-1]
	if last.Rows != 1 {
		t.Fatalf("delta chunk rows = %d", last.Rows)
	}
	if _, ok := last.Zone(0); ok {
		t.Fatal("delta chunk must report no zone")
	}
}

// TestStatsRefreshAfterUpdate is the regression test for the stale-statistics
// bug: Table.Stats() used to be computed once at load and never touched by
// Tracker.Apply, so a patch moving a value past the old maximum left the cost
// model — and any zone built from the table-wide stats — believing the old
// domain. The contract now is that [Min, Max] stays a superset of the live
// encoded domain across patches, inserts and deletes.
func TestStatsRefreshAfterUpdate(t *testing.T) {
	tbl := simpleTable(t, 20) // val in [0, 190]
	st := tbl.Stats()
	if st == nil || st.Cols[1].Max != 190 || st.Rows != 20 {
		t.Fatalf("seed stats = %+v", st)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	// Patch a value past the old maximum: bounds must widen immediately.
	must(tbl.Tracker().Apply(UpdateUnit{SCN: 1, Patches: []CellPatch{
		{Row: 2, Col: 1, Val: 100000},
	}}))
	st = tbl.Stats()
	if st.Cols[1].Max < 100000 {
		t.Fatalf("stats stale after patch: max = %d, want >= 100000", st.Cols[1].Max)
	}
	if st.Cols[1].Exact {
		t.Fatal("NDV must turn inexact after a patch")
	}
	// Pruning correctness: a table-wide zone built from the refreshed stats
	// must admit the patched value.
	z := Zone{Min: st.Cols[1].Min, Max: st.Cols[1].Max}
	if z.Min > 100000 || z.Max < 100000 {
		t.Fatal("refreshed stats zone rejects the patched value")
	}

	// Insert below the old minimum: bounds widen down, rows go up.
	must(tbl.Tracker().Apply(UpdateUnit{SCN: 2, Inserts: [][]int64{{-5, -7}}}))
	st = tbl.Stats()
	if st.Cols[0].Min > -5 || st.Cols[1].Min > -7 {
		t.Fatalf("stats stale after insert: mins = %d, %d", st.Cols[0].Min, st.Cols[1].Min)
	}
	if st.Rows != 21 {
		t.Fatalf("rows = %d, want 21", st.Rows)
	}

	// Deletes never narrow bounds (conservative superset), but track rows.
	must(tbl.Tracker().Apply(UpdateUnit{SCN: 3, Deletes: []int{2}}))
	st = tbl.Stats()
	if st.Rows != 20 {
		t.Fatalf("rows = %d, want 20", st.Rows)
	}
	if st.Cols[1].Max < 100000 {
		t.Fatal("delete must not narrow bounds")
	}

	// Readers holding the old pointer are unaffected (copy-on-write).
	old := st
	must(tbl.Tracker().Apply(UpdateUnit{SCN: 4, Patches: []CellPatch{
		{Row: 3, Col: 0, Val: 1 << 30},
	}}))
	if old.Cols[0].Max != st.Cols[0].Max {
		t.Fatal("stats must be copy-on-write")
	}
}

// TestStatsBuilderReleasesSeenMaps pins the distinct-tracking leak fix: the
// per-column seen maps (up to 2^21 entries each) must be released once the
// NDV is read out, whether the column stayed exact or tripped the limit.
func TestStatsBuilderReleasesSeenMaps(t *testing.T) {
	cols := make([]colStatsBuilder, 2)
	for i := int64(0); i < 100; i++ {
		cols[0].add(i)
		cols[1].add(i % 3)
	}
	ts := buildStats(100, cols)
	if ts.Cols[0].NDV != 100 || !ts.Cols[0].Exact {
		t.Fatalf("col0 stats = %+v", ts.Cols[0])
	}
	if ts.Cols[1].NDV != 3 {
		t.Fatalf("col1 NDV = %d", ts.Cols[1].NDV)
	}
	for i := range cols {
		if cols[i].seen != nil {
			t.Fatalf("col %d seen map retained after build", i)
		}
	}
}

func TestZoneEmptyChunk(t *testing.T) {
	s := MustSchema(ColumnDef{Name: "a", Type: coltypes.Int()})
	b := NewTableBuilder("e", s, BuildOptions{})
	tbl := b.MustBuild()
	for _, cv := range tbl.Snapshot(LatestSCN).Chunks() {
		if _, ok := cv.Zone(0); ok && cv.Rows == 0 {
			t.Fatal("empty chunk must report no zone")
		}
	}
}
