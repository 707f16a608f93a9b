package storage

import (
	"slices"
	"testing"

	"rapid/internal/coltypes"
)

// Compaction edge cases: RLE-compressed tables, string columns (dictionary
// kept), renumbering and post-compaction updates.

func TestCompactWithRLEAndStrings(t *testing.T) {
	s := MustSchema(
		ColumnDef{Name: "id", Type: coltypes.Int()},
		ColumnDef{Name: "flag", Type: coltypes.String()},
		ColumnDef{Name: "constant", Type: coltypes.Int()},
	)
	b := NewTableBuilder("t", s, BuildOptions{ChunkRows: 64, TryRLE: true})
	flags := []string{"aa", "bb", "cc"}
	for i := 0; i < 500; i++ {
		if err := b.Append([]Value{
			IntValue(int64(i)),
			StrValue(flags[i%3]),
			IntValue(7),
		}); err != nil {
			t.Fatal(err)
		}
	}
	tbl := b.MustBuild()
	if baseChunks(tbl)[0].Col(2).rle == nil {
		t.Fatal("constant column should be RLE before compaction")
	}

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	flag := func(s string) int64 {
		enc, err := tbl.Meta(1).Encode(StrValue(s))
		must(err)
		return enc
	}
	dict := tbl.Meta(1).Dict
	must(tbl.Tracker().Apply(UpdateUnit{
		SCN:     1,
		Inserts: [][]int64{{9999, flag("dd"), 8}},
		Deletes: []int{2*64 + 10},
		Patches: []CellPatch{{Row: 0, Col: 1, Val: flag("zz")}},
	}))
	must(tbl.Compact())

	snap := tbl.Snapshot(LatestSCN)
	if snap.TotalRows() != 500 {
		t.Fatalf("rows after compact = %d", snap.TotalRows())
	}
	// The rebuilt base keeps the dictionary (a replica shares the host's), so
	// the patched and the inserted string keep their codes.
	if tbl.Meta(1).Dict != dict {
		t.Fatal("compaction replaced the string column's dictionary")
	}
	foundZZ, foundDD := false, false
	for _, cv := range snap.Chunks() {
		d := cv.Data(1)
		for r := 0; r < cv.Rows; r++ {
			switch dict.Value(int32(d.Get(r))) {
			case "zz":
				foundZZ = true
			case "dd":
				foundDD = true
			}
		}
	}
	if !foundZZ || !foundDD {
		t.Fatalf("strings lost in compaction: zz=%v dd=%v", foundZZ, foundDD)
	}
	// Post-compaction updates keep working (SCN continues past baseSCN).
	if err := tbl.Tracker().Apply(UpdateUnit{SCN: 2, Deletes: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if tbl.Snapshot(LatestSCN).TotalRows() != 499 {
		t.Fatal("post-compaction delete lost")
	}
}

// TestCompactRenumbersToLiveRank: after Compact a row's ordinal is its rank
// among the live rows — the surviving base rows in build order, then the
// surviving inserts — and update units address the rows by that rank.
func TestCompactRenumbersToLiveRank(t *testing.T) {
	s := MustSchema(
		ColumnDef{Name: "k", Type: coltypes.Int()},
		ColumnDef{Name: "v", Type: coltypes.Int()},
	)
	b := NewTableBuilder("t", s, BuildOptions{ChunkRows: 32})
	for i := 0; i < 400; i++ {
		if err := b.Append([]Value{IntValue(int64(i)), IntValue(int64(i * 2))}); err != nil {
			t.Fatal(err)
		}
	}
	tbl := b.MustBuild()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	deleted := []int{0, 31, 32, 399, 401}
	must(tbl.Tracker().Apply(UpdateUnit{SCN: 1, Inserts: [][]int64{{1000, 2000}, {1001, 2002}, {1002, 2004}}, Deletes: deleted}))
	var live []int64 // keys in rank order: ordinals 400–402 are the inserts
	for ord := 0; ord < 403; ord++ {
		if !slices.Contains(deleted, ord) {
			live = append(live, int64(ord+600*(ord/400)))
		}
	}
	must(tbl.Compact())
	patches := make([]CellPatch, len(live))
	for r := range live {
		patches[r] = CellPatch{Row: r, Col: 1, Val: int64(r)}
	}
	must(tbl.Tracker().Apply(UpdateUnit{SCN: 2, Patches: patches}))
	if err := tbl.Tracker().Apply(UpdateUnit{SCN: 3, Deletes: []int{len(live)}}); err == nil {
		t.Fatal("an ordinal past the live rows was accepted after Compact")
	}
	r := 0
	for _, cv := range tbl.Snapshot(LatestSCN).Chunks() {
		k, v := cv.Data(0), cv.Data(1)
		for i := 0; i < cv.Rows; i++ {
			if k.Get(i) != live[r] || v.Get(i) != int64(r) {
				t.Fatalf("row %d holds (k=%d, v=%d), want (k=%d, v=%d)", r, k.Get(i), v.Get(i), live[r], r)
			}
			r++
		}
	}
	if r != len(live) {
		t.Fatalf("%d rows after compaction, want %d", r, len(live))
	}
}

func TestSnapshotIsolationDuringCompact(t *testing.T) {
	// A snapshot taken before compaction still reads its own version after
	// (it holds the base chunks and the unit-log prefix it was cut from;
	// Compact publishes a new version beside it).
	s := MustSchema(ColumnDef{Name: "v", Type: coltypes.Int()})
	b := NewTableBuilder("t", s, BuildOptions{ChunkRows: 16})
	for i := 0; i < 100; i++ {
		if err := b.Append([]Value{IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	tbl := b.MustBuild()
	if err := tbl.Tracker().Apply(UpdateUnit{SCN: 1, Inserts: [][]int64{{500}}}); err != nil {
		t.Fatal(err)
	}
	before := tbl.Snapshot(LatestSCN) // first read happens after the swap
	if err := tbl.Compact(); err != nil {
		t.Fatal(err)
	}
	after := tbl.Snapshot(LatestSCN)
	if after.TotalRows() != 101 {
		t.Fatalf("rows = %d", after.TotalRows())
	}
	if n := len(after.Chunks()); n != 7 {
		t.Fatalf("compacted base has %d chunks, want 7 (101 rows of 16)", n)
	}
	// Through the old snapshot: the 7 original chunks (100 rows) plus the
	// delta chunk holding the insert — not the rebuilt base.
	old := before.Chunks()
	if before.TotalRows() != 101 || len(old) != 8 || old[7].Rows != 1 || old[7].Data(0).Get(0) != 500 {
		t.Fatalf("pre-compaction snapshot reads %d rows in %d chunks after the swap", before.TotalRows(), len(old))
	}
	if scn := tbl.cur.Load().snap.scn; scn != 1 {
		t.Fatalf("SCN after compaction = %d", scn)
	}
}
