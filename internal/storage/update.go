package storage

import (
	"fmt"
	"sync"

	"rapid/internal/bits"
	"rapid/internal/coltypes"
	"rapid/internal/encoding"
)

// The update model of paper §4.3: changes arrive as SCN-stamped update units
// (UU). The tracker keeps applied units and serves queries the data version
// valid at their SCN, so update propagation and query processing proceed
// concurrently. Accumulated units are merged into base storage by Compact
// (the garbage-collection of outdated vectors the paper mentions).

// RowRef addresses a base row: partition, chunk, row-in-chunk.
type RowRef struct {
	Part, Chunk, Row int
}

// CellPatch updates a single cell of a base row.
type CellPatch struct {
	Ref RowRef
	Col int
	Val Value
}

// UpdateUnit is one SCN-stamped batch of changes.
type UpdateUnit struct {
	SCN     uint64
	Inserts [][]Value
	Deletes []RowRef
	Patches []CellPatch
}

type encPatch struct {
	ref RowRef
	col int
	enc int64
	exc *encoding.Decimal
}

type appliedUU struct {
	scn     uint64
	deletes []RowRef
	patches []encPatch
	inserts [][]int64 // encoded rows
}

// Tracker stores applied update units for a table and builds SCN-consistent
// snapshots.
type Tracker struct {
	t     *Table
	mu    sync.RWMutex
	units []appliedUU
}

// NewTracker creates an empty tracker for t.
func NewTracker(t *Table) *Tracker { return &Tracker{t: t} }

// Apply validates and applies an update unit. SCNs must be monotonically
// increasing per table.
func (tr *Tracker) Apply(uu UpdateUnit) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.t.mu.Lock()
	defer tr.t.mu.Unlock()
	if uu.SCN <= tr.t.currSCN {
		return fmt.Errorf("storage: UU SCN %d not newer than table SCN %d", uu.SCN, tr.t.currSCN)
	}
	a := appliedUU{scn: uu.SCN, deletes: uu.Deletes}
	for _, p := range uu.Patches {
		if err := tr.checkRef(p.Ref); err != nil {
			return err
		}
		enc, exc, err := tr.t.EncodeValue(p.Col, p.Val)
		if err != nil {
			return err
		}
		a.patches = append(a.patches, encPatch{ref: p.Ref, col: p.Col, enc: enc, exc: exc})
	}
	for _, d := range uu.Deletes {
		if err := tr.checkRef(d); err != nil {
			return err
		}
	}
	for _, row := range uu.Inserts {
		if len(row) != tr.t.schema.NumCols() {
			return fmt.Errorf("storage: insert row has %d values, want %d", len(row), tr.t.schema.NumCols())
		}
		enc := make([]int64, len(row))
		for c, v := range row {
			e, _, err := tr.t.EncodeValue(c, v)
			if err != nil {
				return err
			}
			enc[c] = e
		}
		a.inserts = append(a.inserts, enc)
	}
	// Epoch bump must precede unit publication: a cache validator that reads
	// the epoch after its computation can then never pair pre-mutation data
	// with a post-mutation epoch (the stale-hit direction). The reverse
	// window — epoch bumped, data not yet visible — only over-invalidates.
	tr.t.epoch.Add(1)
	tr.units = append(tr.units, a)
	tr.t.currSCN = uu.SCN
	tr.t.refreshStatsLocked(a)
	return nil
}

// refreshStatsLocked maintains conservative table statistics across an
// applied update unit (t.mu held). The contract the cost model and zone
// pruning rely on is that [Min, Max] stays a superset of the live encoded
// domain: patches and inserts widen the bounds to cover their values; the
// row count tracks inserts and deletes; NDV becomes inexact (a mutation can
// move it either way). Deletes never narrow bounds — a superset can only
// under-prune, never produce a wrong result. Compact recomputes exact
// statistics from scratch.
func (t *Table) refreshStatsLocked(a appliedUU) {
	if t.stats == nil {
		return
	}
	if len(a.patches) == 0 && len(a.inserts) == 0 && len(a.deletes) == 0 {
		return
	}
	// Copy-on-write: readers hold the pointer returned by Stats() without a
	// lock on its contents, so mutations build a fresh TableStats.
	ns := &TableStats{Rows: t.stats.Rows, Cols: append([]ColStats(nil), t.stats.Cols...)}
	widen := func(col int, v int64) {
		if col < 0 || col >= len(ns.Cols) {
			return
		}
		cs := &ns.Cols[col]
		if ns.Rows == 0 {
			cs.Min, cs.Max = v, v
		} else {
			if v < cs.Min {
				cs.Min = v
			}
			if v > cs.Max {
				cs.Max = v
			}
		}
		cs.Exact = false
	}
	for _, p := range a.patches {
		widen(p.col, p.enc)
	}
	for _, row := range a.inserts {
		for c, v := range row {
			widen(c, v)
		}
	}
	ns.Rows += int64(len(a.inserts)) - int64(len(a.deletes))
	if ns.Rows < 0 {
		ns.Rows = 0
	}
	if len(a.deletes) > 0 {
		for c := range ns.Cols {
			ns.Cols[c].Exact = false
		}
	}
	for c := range ns.Cols {
		if ns.Cols[c].NDV > ns.Rows && ns.Rows > 0 {
			ns.Cols[c].NDV = ns.Rows
		}
	}
	t.stats = ns
}

func (tr *Tracker) checkRef(r RowRef) error {
	if r.Part < 0 || r.Part >= len(tr.t.parts) {
		return fmt.Errorf("storage: partition %d out of range", r.Part)
	}
	p := tr.t.parts[r.Part]
	if r.Chunk < 0 || r.Chunk >= p.NumChunks() {
		return fmt.Errorf("storage: chunk %d out of range", r.Chunk)
	}
	if r.Row < 0 || r.Row >= p.Chunk(r.Chunk).Rows() {
		return fmt.Errorf("storage: row %d out of range", r.Row)
	}
	return nil
}

// PendingUnits returns the number of unmerged update units.
func (tr *Tracker) PendingUnits() int {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return len(tr.units)
}

// LatestSCN is the SCN snapshot marker meaning "newest visible version".
const LatestSCN = ^uint64(0)

// Snapshot is an SCN-consistent read view over a table: base chunks with
// the valid patches and deletes applied, plus the visible inserted rows.
type Snapshot struct {
	t     *Table
	scn   uint64
	units []appliedUU
}

// Snapshot builds a read view of the table at the given SCN.
func (t *Table) Snapshot(scn uint64) *Snapshot {
	t.tracker.mu.RLock()
	defer t.tracker.mu.RUnlock()
	s := &Snapshot{t: t, scn: scn}
	for _, u := range t.tracker.units {
		if u.scn <= scn {
			s.units = append(s.units, u)
		}
	}
	return s
}

// Table returns the snapshot's table.
func (s *Snapshot) Table() *Table { return s.t }

// SCN returns the snapshot SCN.
func (s *Snapshot) SCN() uint64 { return s.scn }

// ChunkView is a readable chunk of a snapshot. Deleted, when non-nil, marks
// rows that must be skipped.
type ChunkView struct {
	Rows    int
	Part    int
	Deleted *bits.Vector
	data    func(col int) coltypes.Data
	vector  func(col int) *Vector
	zone    func(col int) (Zone, bool)
}

// Data returns the (patched) column data of the view.
func (cv *ChunkView) Data(col int) coltypes.Data { return cv.data(col) }

// Zone returns the zone-map entry for a column of the view, when one is
// known to still bound the visible data. Patched columns and delta chunks
// report ok=false; views with deletions keep their base zones — a zone is
// then a superset of the live values, which can only under-prune.
func (cv *ChunkView) Zone(col int) (Zone, bool) {
	if cv.zone == nil {
		return Zone{}, false
	}
	return cv.zone(col)
}

// Vector returns the underlying base vector when the view is an unpatched
// base chunk; nil for delta chunks or patched views. Scans use it to reach
// DSB exception tables.
func (cv *ChunkView) Vector(col int) *Vector {
	if cv.vector == nil {
		return nil
	}
	return cv.vector(col)
}

// Chunks returns all visible chunks: the base chunks (patched as needed)
// followed by one delta chunk holding visible inserted rows, if any.
func (s *Snapshot) Chunks() []ChunkView {
	var views []ChunkView
	for pi, p := range s.t.parts {
		for ci := range p.chunks {
			views = append(views, s.baseChunkView(pi, ci))
		}
	}
	if delta := s.deltaChunkView(); delta != nil {
		views = append(views, *delta)
	}
	return views
}

// TotalRows returns the number of visible rows (excluding deletions).
func (s *Snapshot) TotalRows() int {
	n := 0
	for _, cv := range s.Chunks() {
		n += cv.Rows
		if cv.Deleted != nil {
			n -= cv.Deleted.Count()
		}
	}
	return n
}

func (s *Snapshot) baseChunkView(pi, ci int) ChunkView {
	chunk := s.t.parts[pi].chunks[ci]
	var deleted *bits.Vector
	type patch struct {
		row int
		col int
		enc int64
	}
	var patches []patch
	for _, u := range s.units {
		for _, d := range u.deletes {
			if d.Part == pi && d.Chunk == ci {
				if deleted == nil {
					deleted = bits.NewVector(chunk.Rows())
				}
				deleted.Set(d.Row)
			}
		}
		for _, p := range u.patches {
			if p.ref.Part == pi && p.ref.Chunk == ci {
				patches = append(patches, patch{row: p.ref.Row, col: p.col, enc: p.enc})
			}
		}
	}
	cv := ChunkView{
		Rows:    chunk.Rows(),
		Part:    pi,
		Deleted: deleted,
		vector:  func(col int) *Vector { return chunk.Col(col) },
	}
	if len(patches) == 0 {
		cv.data = func(col int) coltypes.Data { return chunk.Col(col).Data() }
		cv.zone = chunk.Zone
		return cv
	}
	patchedSet := make(map[int]bool, len(patches))
	for _, p := range patches {
		patchedSet[p.col] = true
	}
	cv.zone = func(col int) (Zone, bool) {
		if patchedSet[col] {
			return Zone{}, false
		}
		return chunk.Zone(col)
	}
	// Copy-on-patch: clone affected columns, widening if a patched value
	// does not fit the base width.
	patchedCols := make(map[int]coltypes.Data)
	cv.data = func(col int) coltypes.Data {
		if d, ok := patchedCols[col]; ok {
			return d
		}
		base := chunk.Col(col).Data()
		needsPatch := false
		needWide := false
		w := base.Width()
		for _, p := range patches {
			if p.col == col {
				needsPatch = true
				if p.enc < w.MinInt() || p.enc > w.MaxInt() {
					needWide = true
				}
			}
		}
		if !needsPatch {
			patchedCols[col] = base
			return base
		}
		var cp coltypes.Data
		if needWide {
			cp = coltypes.New(coltypes.W8, base.Len())
			for i := 0; i < base.Len(); i++ {
				cp.Set(i, base.Get(i))
			}
		} else {
			cp = base.NewSame(base.Len())
			cp.CopyFrom(0, base)
		}
		for _, p := range patches {
			if p.col == col {
				cp.Set(p.row, p.enc)
			}
		}
		patchedCols[col] = cp
		return cp
	}
	cv.vector = nil // patched views must not expose base exception tables
	return cv
}

func (s *Snapshot) deltaChunkView() *ChunkView {
	var rows [][]int64
	for _, u := range s.units {
		rows = append(rows, u.inserts...)
	}
	if len(rows) == 0 {
		return nil
	}
	cols := make([]coltypes.Data, s.t.schema.NumCols())
	cv := &ChunkView{Rows: len(rows), Part: 0}
	cv.data = func(col int) coltypes.Data {
		if cols[col].Width() == 0 { // not built yet
			// Delta rows may exceed the base width; store wide.
			d := coltypes.New(coltypes.W8, len(rows))
			for i, r := range rows {
				d.Set(i, r[col])
			}
			cols[col] = d
		}
		return cols[col]
	}
	return cv
}

// Compact merges every applied update unit into base storage, rebuilding
// partitions and statistics, and clears the tracker. This is the background
// reclamation of outdated vectors (§4.3).
func (t *Table) Compact() error {
	t.tracker.mu.Lock()
	defer t.tracker.mu.Unlock()
	t.mu.Lock()
	scn := t.currSCN
	t.mu.Unlock()

	snap := &Snapshot{t: t, scn: scn, units: t.tracker.units}
	b := NewTableBuilder(t.name, t.schema, BuildOptions{
		Partitions: len(t.parts),
		ChunkRows:  chunkRowsOf(t),
	})
	for _, cv := range snap.Chunks() {
		cols := make([]coltypes.Data, t.schema.NumCols())
		for c := range cols {
			cols[c] = cv.Data(c)
		}
		for r := 0; r < cv.Rows; r++ {
			if cv.Deleted != nil && cv.Deleted.Test(r) {
				continue
			}
			row := make([]Value, len(cols))
			for c := range cols {
				row[c] = t.DecodeValue(c, cols[c].Get(r))
			}
			if err := b.Append(row); err != nil {
				return err
			}
		}
	}
	nt, err := b.Build()
	if err != nil {
		return err
	}
	// Same ordering contract as Tracker.Apply: bump before the rebuilt base
	// becomes visible so validators never certify mid-compaction reads.
	t.epoch.Add(1)
	t.mu.Lock()
	t.meta = nt.meta
	t.parts = nt.parts
	t.stats = nt.stats
	t.baseSCN = scn
	t.mu.Unlock()
	t.tracker.units = nil
	return nil
}

func chunkRowsOf(t *Table) int {
	for _, p := range t.parts {
		if p.NumChunks() > 0 {
			return p.Chunk(0).Rows()
		}
	}
	return DefaultChunkRows
}

// BaseSCN returns the SCN merged into base storage.
func (t *Table) BaseSCN() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.baseSCN
}
