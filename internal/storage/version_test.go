package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"rapid/internal/coltypes"
)

// refView is what the reference below computes for one chunk of a snapshot.
type refView struct {
	cells   [][]int64 // [col][row]
	width   []coltypes.Width
	zones   []Zone
	zoneOK  []bool
	deleted []bool
}

// refViews is the naive reference the version index is checked against: for
// every chunk it walks every unit visible at scn (the pre-index
// implementation, O(chunks × units)), then builds the delta chunk from the
// visible inserts and applies the units' delta patches and deletes in order.
func refViews(tbl *Table, units []UpdateUnit, scn uint64) (views []refView, total int) {
	ncols := tbl.Schema().NumCols()
	var visible []UpdateUnit
	for _, u := range units {
		if u.SCN <= scn {
			visible = append(visible, u)
		}
	}
	for pi := 0; pi < tbl.NumPartitions(); pi++ {
		part := tbl.Partition(pi)
		for ci := 0; ci < part.NumChunks(); ci++ {
			chunk := part.Chunk(ci)
			rv := refView{deleted: make([]bool, chunk.Rows())}
			patched := make([]bool, ncols)
			for c := 0; c < ncols; c++ {
				base := chunk.Col(c).Data()
				col := make([]int64, base.Len())
				for r := range col {
					col[r] = base.Get(r)
				}
				w := base.Width()
				for _, u := range visible {
					for _, p := range u.Patches {
						if p.Ref.Part == pi && p.Ref.Chunk == ci && p.Col == c {
							col[p.Ref.Row] = p.Val
							patched[c] = true
							if p.Val < w.MinInt() || p.Val > w.MaxInt() {
								w = coltypes.W8
							}
						}
					}
				}
				z, ok := chunk.Zone(c)
				rv.cells = append(rv.cells, col)
				rv.width = append(rv.width, w)
				rv.zones = append(rv.zones, z)
				rv.zoneOK = append(rv.zoneOK, ok && !patched[c])
			}
			for _, u := range visible {
				for _, d := range u.Deletes {
					if d.Part == pi && d.Chunk == ci {
						rv.deleted[d.Row] = true
					}
				}
			}
			views = append(views, rv)
		}
	}
	var delta [][]int64 // [row][col]
	for _, u := range visible {
		for _, row := range u.Inserts {
			delta = append(delta, slices.Clone(row))
		}
	}
	if len(delta) > 0 {
		rv := refView{deleted: make([]bool, len(delta)), zoneOK: make([]bool, ncols), zones: make([]Zone, ncols)}
		for _, u := range visible {
			for _, p := range u.Patches {
				if p.Ref.Part == DeltaPart {
					delta[p.Ref.Row][p.Col] = p.Val
				}
			}
			for _, d := range u.Deletes {
				if d.Part == DeltaPart {
					rv.deleted[d.Row] = true
				}
			}
		}
		for c := 0; c < ncols; c++ {
			col := make([]int64, len(delta))
			for r := range delta {
				col[r] = delta[r][c]
			}
			rv.cells = append(rv.cells, col)
			rv.width = append(rv.width, coltypes.W8)
		}
		views = append(views, rv)
	}
	for _, rv := range views {
		for _, d := range rv.deleted {
			if !d {
				total++
			}
		}
	}
	return views, total
}

// sameAsRef compares a snapshot with the reference cell for cell.
func sameAsRef(s *Snapshot, ref []refView, total int) error {
	got := s.Chunks()
	if len(got) != len(ref) {
		return fmt.Errorf("%d views, reference has %d", len(got), len(ref))
	}
	if s.TotalRows() != total {
		return fmt.Errorf("TotalRows = %d, reference %d", s.TotalRows(), total)
	}
	for i := range got {
		cv, rv := &got[i], &ref[i]
		if cv.Rows != len(rv.deleted) {
			return fmt.Errorf("view %d: %d rows, reference %d", i, cv.Rows, len(rv.deleted))
		}
		for r, want := range rv.deleted {
			if have := cv.Deleted != nil && cv.Deleted.Test(r); have != want {
				return fmt.Errorf("view %d row %d: deleted = %v, reference %v", i, r, have, want)
			}
		}
		for c := range rv.cells {
			d := cv.Data(c)
			if d.Len() != cv.Rows || d.Width() != rv.width[c] {
				return fmt.Errorf("view %d col %d: len/width %d/%d, reference %d/%d", i, c, d.Len(), d.Width(), cv.Rows, rv.width[c])
			}
			for r, want := range rv.cells[c] {
				if d.Get(r) != want {
					return fmt.Errorf("view %d col %d row %d: %d, reference %d", i, c, r, d.Get(r), want)
				}
			}
			z, ok := cv.Zone(c)
			if ok != rv.zoneOK[c] || ok && z != rv.zones[c] {
				return fmt.Errorf("view %d col %d: zone %v/%v, reference %v/%v", i, c, z, ok, rv.zones[c], rv.zoneOK[c])
			}
		}
	}
	return nil
}

// randomUnits builds a table of 1–4 partitions (round-robin or hashed) and a
// random unit sequence over it: base patches (some overflowing the column
// width), base deletes, inserts, and patches and deletes of inserted rows.
func randomUnits(rng *rand.Rand) (*Table, []UpdateUnit) {
	s := MustSchema(
		ColumnDef{Name: "k", Type: coltypes.Int()},
		ColumnDef{Name: "a", Type: coltypes.Int()},
		ColumnDef{Name: "b", Type: coltypes.Int()},
	)
	opts := BuildOptions{Partitions: 1 + rng.Intn(4), PartitionKey: rng.Intn(2) - 1, ChunkRows: 3 + rng.Intn(6)}
	b := NewTableBuilder("t", s, opts)
	for i, n := 0, rng.Intn(60); i < n; i++ {
		if err := b.Append([]Value{IntValue(int64(i)), IntValue(rng.Int63n(100)), IntValue(rng.Int63n(1000))}); err != nil {
			panic(err)
		}
	}
	tbl := b.MustBuild()
	val := func() int64 {
		if rng.Intn(4) == 0 {
			return 1<<40 + rng.Int63n(9) // overflows every base width
		}
		return rng.Int63n(100)
	}
	var baseRefs []RowRef
	for pi := 0; pi < tbl.NumPartitions(); pi++ {
		for ci := 0; ci < tbl.Partition(pi).NumChunks(); ci++ {
			for r := 0; r < tbl.Partition(pi).Chunk(ci).Rows(); r++ {
				baseRefs = append(baseRefs, RowRef{Part: pi, Chunk: ci, Row: r})
			}
		}
	}
	var units []UpdateUnit
	inserted := 0
	for scn, n := uint64(0), rng.Intn(14); len(units) < n; {
		scn += 1 + uint64(rng.Intn(3))
		u := UpdateUnit{SCN: scn}
		for i, k := 0, rng.Intn(3); i < k; i++ {
			u.Inserts = append(u.Inserts, []int64{int64(1000 + inserted), val(), val()})
			inserted++
		}
		ref := func() (RowRef, bool) {
			if inserted > 0 && (len(baseRefs) == 0 || rng.Intn(3) == 0) {
				return RowRef{Part: DeltaPart, Row: rng.Intn(inserted)}, true
			}
			if len(baseRefs) == 0 {
				return RowRef{}, false
			}
			return baseRefs[rng.Intn(len(baseRefs))], true
		}
		for i, k := 0, rng.Intn(4); i < k; i++ {
			if r, ok := ref(); ok {
				u.Patches = append(u.Patches, CellPatch{Ref: r, Col: rng.Intn(3), Val: val()})
			}
		}
		for i, k := 0, rng.Intn(3); i < k; i++ {
			if r, ok := ref(); ok {
				u.Deletes = append(u.Deletes, r)
			}
		}
		units = append(units, u)
	}
	return tbl, units
}

// TestVersionIndexMatchesReference: for random unit sequences and every
// prefix SCN, the one-pass materialisation equals the naive per-chunk walk.
func TestVersionIndexMatchesReference(t *testing.T) {
	check := func(seed int64) bool {
		tbl, units := randomUnits(rand.New(rand.NewSource(seed)))
		scns := []uint64{0, LatestSCN}
		for _, u := range units {
			if err := tbl.Tracker().Apply(u); err != nil {
				t.Errorf("seed %d: apply SCN %d: %v", seed, u.SCN, err)
				return false
			}
			scns = append(scns, u.SCN-1, u.SCN)
			// The newest version as each Apply leaves it, too.
			ref, total := refViews(tbl, units, u.SCN)
			if err := sameAsRef(tbl.Snapshot(LatestSCN), ref, total); err != nil {
				t.Errorf("seed %d: newest version after SCN %d: %v", seed, u.SCN, err)
				return false
			}
		}
		for _, scn := range scns {
			ref, total := refViews(tbl, units, scn)
			if err := sameAsRef(tbl.Snapshot(scn), ref, total); err != nil {
				t.Errorf("seed %d: snapshot at SCN %d of %d units: %v", seed, scn, len(units), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestReadersSeeUnitLogPrefixes: readers racing a writer only ever observe a
// whole prefix of the unit log — through the shared newest view and through a
// private old-SCN view — and readers of one version share its patched column.
func TestReadersSeeUnitLogPrefixes(t *testing.T) {
	const base, old, units = 40, 5, 1000
	tbl := simpleTable(t, base)
	// Unit i sets cell (row 0, val) to i and inserts the row (i, i).
	apply := func(i int) error {
		return tbl.Tracker().Apply(UpdateUnit{
			SCN:     uint64(i),
			Patches: []CellPatch{{Ref: RowRef{0, 0, 0}, Col: 1, Val: int64(i)}},
			Inserts: [][]int64{{int64(i), int64(i)}},
		})
	}
	// prefix reports which prefix of the log s shows, or an error if its
	// parts disagree about that.
	prefix := func(s *Snapshot) (int, error) {
		chunks := s.Chunks()
		k := int(chunks[0].Data(1).Get(0))
		if s.TotalRows() != base+k {
			return 0, fmt.Errorf("patched cell says prefix %d, TotalRows %d", k, s.TotalRows())
		}
		if k == 0 {
			return 0, nil
		}
		delta := &chunks[len(chunks)-1]
		if delta.Rows != k {
			return 0, fmt.Errorf("patched cell says prefix %d, delta chunk has %d rows", k, delta.Rows)
		}
		for r := 0; r < k; r++ {
			if delta.Data(0).Get(r) != int64(r+1) || delta.Data(1).Get(r) != int64(r+1) {
				return 0, fmt.Errorf("delta row %d of prefix %d holds (%d, %d)", r, k, delta.Data(0).Get(r), delta.Data(1).Get(r))
			}
		}
		return k, nil
	}
	for i := 1; i <= old; i++ {
		if err := apply(i); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				k, err := prefix(tbl.Snapshot(LatestSCN))
				if err == nil && k < last {
					err = fmt.Errorf("prefix went back from %d to %d", last, k)
				}
				if err != nil {
					t.Error(err)
					return
				}
				last = k
				if k, err := prefix(tbl.Snapshot(old)); err != nil || k != old {
					t.Errorf("snapshot at SCN %d shows prefix %d (%v)", old, k, err)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for i := old + 1; i <= units; i++ {
		if err := apply(i); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()

	var cols [2]coltypes.Data
	for i := range cols {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cols[i] = tbl.Snapshot(LatestSCN).Chunks()[0].Data(1)
		}()
	}
	wg.Wait()
	if cols[0] != cols[1] || cols[0].Get(0) != units {
		t.Fatalf("two readers of one version got different patched columns: %v vs %v", cols[0], cols[1])
	}
}

// patchedTable returns a table of `chunks` chunks with `units` single-patch
// units applied, spread over the chunks.
func patchedTable(tb testing.TB, chunks, units int) *Table {
	const chunkRows = 64
	s := MustSchema(ColumnDef{Name: "id", Type: coltypes.Int()}, ColumnDef{Name: "val", Type: coltypes.Int()})
	b := NewTableBuilder("t", s, BuildOptions{ChunkRows: chunkRows})
	for i := 0; i < chunks*chunkRows; i++ {
		if err := b.Append([]Value{IntValue(int64(i)), IntValue(int64(i % 100))}); err != nil {
			tb.Fatal(err)
		}
	}
	tbl := b.MustBuild()
	for i := 1; i <= units; i++ {
		if err := tbl.Tracker().Apply(UpdateUnit{SCN: uint64(i), Patches: []CellPatch{
			{Ref: RowRef{Chunk: i % chunks, Row: i % chunkRows}, Col: 1, Val: int64(i % 100)},
		}}); err != nil {
			tb.Fatal(err)
		}
	}
	return tbl
}

var sinkRows int

// TestWarmSnapshotIsFree pins the read cost of a version that has been read
// before: taking the snapshot, its views and its row count allocates nothing,
// however long the unit log is.
func TestWarmSnapshotIsFree(t *testing.T) {
	tbl := patchedTable(t, 64, 4096)
	read := func() {
		s := tbl.Snapshot(LatestSCN)
		sinkRows = len(s.Chunks()) + s.TotalRows()
	}
	read()
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Fatalf("Snapshot+Chunks+TotalRows on a read version: %v allocs, want 0", n)
	}
}

// BenchmarkSnapshotChunksAfterUnits measures the first read of a version
// (a private old-SCN snapshot is cut per iteration, so nothing is shared).
// The cost grows with the units, not with units × chunks: 4096 units cost at
// most ≈ 8× what 512 do.
func BenchmarkSnapshotChunksAfterUnits(b *testing.B) {
	for _, units := range []int{512, 4096} {
		b.Run(fmt.Sprint(units), func(b *testing.B) {
			tbl := patchedTable(b, 64, units+1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := tbl.Snapshot(uint64(units))
				sinkRows = len(s.Chunks()) + s.TotalRows()
			}
		})
	}
}

// TestBaseRowRef: for every build layout, the ord-th appended row is found at
// the position BaseRowRef names.
func TestBaseRowRef(t *testing.T) {
	s := MustSchema(ColumnDef{Name: "k", Type: coltypes.Int()}, ColumnDef{Name: "ord", Type: coltypes.Int()})
	for _, opts := range []BuildOptions{
		{ChunkRows: 8},
		{Partitions: 3, PartitionKey: -1, ChunkRows: 8},
		{Partitions: 4, PartitionKey: 0, ChunkRows: 8},
	} {
		b := NewTableBuilder("t", s, opts)
		const rows = 101
		for i := 0; i < rows; i++ {
			if err := b.Append([]Value{IntValue(int64(i * 7 % 13)), IntValue(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		tbl := b.MustBuild()
		for ord := 0; ord < rows; ord++ {
			r := tbl.BaseRowRef(ord)
			if err := checkRef(tbl.cur.Load().snap.parts, 0, r); err != nil {
				t.Fatalf("%+v: ordinal %d: %v", opts, ord, err)
			}
			if got := tbl.Partition(r.Part).Chunk(r.Chunk).Col(1).Data().Get(r.Row); got != int64(ord) {
				t.Fatalf("%+v: ordinal %d maps to %+v, which holds ordinal %d", opts, ord, r, got)
			}
		}
		for _, ord := range []int{-1, rows, rows + 50} {
			if err := tbl.Tracker().Apply(UpdateUnit{SCN: 1, Deletes: []RowRef{tbl.BaseRowRef(ord)}}); err == nil {
				t.Fatalf("%+v: ordinal %d outside the build was accepted", opts, ord)
			}
		}
	}
}
