package storage

import (
	"testing"

	"rapid/internal/coltypes"
)

func simpleTable(t *testing.T, rows int) *Table {
	t.Helper()
	s := MustSchema(
		ColumnDef{Name: "id", Type: coltypes.Int()},
		ColumnDef{Name: "val", Type: coltypes.Int()},
	)
	b := NewTableBuilder("t", s, BuildOptions{ChunkRows: 8})
	for i := 0; i < rows; i++ {
		if err := b.Append([]Value{IntValue(int64(i)), IntValue(int64(i * 10))}); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

func scanCol(s *Snapshot, col int) []int64 {
	var out []int64
	for _, cv := range s.Chunks() {
		d := cv.Data(col)
		for r := 0; r < cv.Rows; r++ {
			if cv.Deleted != nil && cv.Deleted.Test(r) {
				continue
			}
			out = append(out, d.Get(r))
		}
	}
	return out
}

func TestSnapshotNoUpdates(t *testing.T) {
	tbl := simpleTable(t, 20)
	s := tbl.Snapshot(LatestSCN)
	vals := scanCol(s, 0)
	if len(vals) != 20 {
		t.Fatalf("rows = %d", len(vals))
	}
	if s.TotalRows() != 20 {
		t.Fatalf("TotalRows = %d", s.TotalRows())
	}
	if tbl.cur.Load().snap.scn != 0 {
		t.Fatal("fresh table should be at SCN 0")
	}
}

func TestApplyInsertDeletePatch(t *testing.T) {
	tbl := simpleTable(t, 10)
	err := tbl.Tracker().Apply(UpdateUnit{
		SCN:     5,
		Inserts: [][]int64{{100, 1000}},
		Deletes: []RowRef{{Part: 0, Chunk: 0, Row: 3}},
		Patches: []CellPatch{{Ref: RowRef{Part: 0, Chunk: 0, Row: 1}, Col: 1, Val: 999}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if scn := tbl.cur.Load().snap.scn; scn != 5 {
		t.Fatalf("SCN = %d", scn)
	}
	s := tbl.Snapshot(LatestSCN)
	ids := scanCol(s, 0)
	if len(ids) != 10 { // 10 - 1 deleted + 1 inserted
		t.Fatalf("visible rows = %d: %v", len(ids), ids)
	}
	vals := scanCol(s, 1)
	// Row id=1 patched to 999; id=3 deleted; inserted row id=100 val=1000.
	found999, found1000, found3 := false, false, false
	for i, id := range ids {
		switch id {
		case 1:
			found999 = vals[i] == 999
		case 100:
			found1000 = vals[i] == 1000
		case 3:
			found3 = true
		}
	}
	if !found999 {
		t.Fatal("patch not visible")
	}
	if !found1000 {
		t.Fatal("insert not visible")
	}
	if found3 {
		t.Fatal("deleted row still visible")
	}
}

func TestSCNVersioning(t *testing.T) {
	tbl := simpleTable(t, 4)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	base := tbl.Snapshot(LatestSCN)
	must(tbl.Tracker().Apply(UpdateUnit{SCN: 10, Patches: []CellPatch{
		{Ref: RowRef{0, 0, 0}, Col: 1, Val: 111},
	}}))
	first := tbl.Snapshot(LatestSCN) // not read until a newer version exists
	must(tbl.Tracker().Apply(UpdateUnit{SCN: 20, Patches: []CellPatch{
		{Ref: RowRef{0, 0, 0}, Col: 1, Val: 222},
	}}))
	// A snapshot taken before an Apply keeps reading its own version.
	if v := scanCol(base, 1)[0]; v != 0 {
		t.Fatalf("snapshot taken before any unit sees %d, want 0", v)
	}
	if v := scanCol(first, 1)[0]; v != 111 {
		t.Fatalf("snapshot taken at SCN 10 sees %d after SCN 20 was applied, want 111", v)
	}
	// Snapshot before the first change sees the original value.
	if v := scanCol(tbl.Snapshot(5), 1)[0]; v != 0 {
		t.Fatalf("SCN 5 sees %d, want 0", v)
	}
	// Snapshot between the changes sees the first patch only.
	if v := scanCol(tbl.Snapshot(15), 1)[0]; v != 111 {
		t.Fatalf("SCN 15 sees %d, want 111", v)
	}
	// Latest sees the second patch.
	if v := scanCol(tbl.Snapshot(LatestSCN), 1)[0]; v != 222 {
		t.Fatalf("latest sees %d, want 222", v)
	}
}

func TestApplyValidation(t *testing.T) {
	tbl := simpleTable(t, 4)
	if err := tbl.Tracker().Apply(UpdateUnit{SCN: 3,
		Deletes: []RowRef{{Part: 9, Chunk: 0, Row: 0}}}); err == nil {
		t.Fatal("bad partition should fail")
	}
	if err := tbl.Tracker().Apply(UpdateUnit{SCN: 3,
		Deletes: []RowRef{{Part: 0, Chunk: 0, Row: 99}}}); err == nil {
		t.Fatal("bad row should fail")
	}
	if err := tbl.Tracker().Apply(UpdateUnit{SCN: 3,
		Inserts: [][]int64{{1}}}); err == nil {
		t.Fatal("short insert should fail")
	}
	if err := tbl.Tracker().Apply(UpdateUnit{SCN: 3}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Tracker().Apply(UpdateUnit{SCN: 3}); err == nil {
		t.Fatal("non-monotonic SCN should fail")
	}
}

func TestPatchWidening(t *testing.T) {
	// Base column fits W1 (values 0..9); patch a huge value; the snapshot
	// must widen the patched copy rather than truncate.
	tbl := simpleTable(t, 10)
	if err := tbl.Tracker().Apply(UpdateUnit{SCN: 1, Patches: []CellPatch{
		{Ref: RowRef{0, 0, 2}, Col: 0, Val: 1 << 40},
	}}); err != nil {
		t.Fatal(err)
	}
	ids := scanCol(tbl.Snapshot(LatestSCN), 0)
	found := false
	for _, v := range ids {
		if v == 1<<40 {
			found = true
		}
	}
	if !found {
		t.Fatalf("widened patch lost: %v", ids)
	}
}

func TestCompact(t *testing.T) {
	tbl := simpleTable(t, 20)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tbl.Tracker().Apply(UpdateUnit{
		SCN:     7,
		Inserts: [][]int64{{500, 5000}},
		Deletes: []RowRef{{0, 0, 0}, {0, 1, 2}},
		Patches: []CellPatch{{Ref: RowRef{0, 0, 5}, Col: 1, Val: 777}},
	}))
	before := scanCol(tbl.Snapshot(LatestSCN), 0)
	beforeVals := scanCol(tbl.Snapshot(LatestSCN), 1)
	must(tbl.Compact())
	if tbl.Tracker().PendingUnits() != 0 {
		t.Fatal("compact should clear units")
	}
	if scn := tbl.cur.Load().snap.scn; scn != 7 {
		t.Fatalf("SCN after compaction = %d", scn)
	}
	after := scanCol(tbl.Snapshot(LatestSCN), 0)
	afterVals := scanCol(tbl.Snapshot(LatestSCN), 1)
	if len(after) != len(before) {
		t.Fatalf("row count changed: %d -> %d", len(before), len(after))
	}
	// Same multiset of (id, val) pairs.
	pairs := func(ids, vals []int64) map[[2]int64]int {
		m := map[[2]int64]int{}
		for i := range ids {
			m[[2]int64{ids[i], vals[i]}]++
		}
		return m
	}
	bm, am := pairs(before, beforeVals), pairs(after, afterVals)
	if len(bm) != len(am) {
		t.Fatal("compact changed data")
	}
	for k, c := range bm {
		if am[k] != c {
			t.Fatalf("compact changed data at %v", k)
		}
	}
}
