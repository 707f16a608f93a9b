package storage

import (
	"fmt"
	"sort"
	"sync"

	"rapid/internal/bits"
	"rapid/internal/coltypes"
)

// The update model of paper §4.3: changes arrive as SCN-stamped update units
// (UU). The tracker keeps applied units and serves queries the data version
// valid at their SCN, so update propagation and query processing proceed
// concurrently. Accumulated units are merged into base storage by Compact
// (the garbage-collection of outdated vectors the paper mentions).

// CellPatch updates a single cell of a row. Val is in column Col's encoding.
type CellPatch struct {
	Row int
	Col int
	Val int64
}

// UpdateUnit is one SCN-stamped batch of changes, its values in the table's
// column encoding (ColumnMeta.Encode) — journal entries as the host logged
// them. A row is addressed by one ordinal: the base rows in build order, then
// the rows the unit log has inserted, in log order. Within a unit, inserts
// apply first, then patches, then deletes, so a unit may address the rows it
// inserts. Apply takes ownership: the unit log keeps the slices it is given,
// every later snapshot reads them, and the caller must not write to them
// again.
type UpdateUnit struct {
	SCN     uint64
	Inserts [][]int64
	Deletes []int
	Patches []CellPatch
}

// appliedUU is a unit in the log.
type appliedUU struct {
	UpdateUnit
	deltaEnd int // rows inserted by the log up to and including this unit
}

// deltaRows returns the number of rows a unit log has inserted.
func deltaRows(units []appliedUU) int {
	if len(units) == 0 {
		return 0
	}
	return units[len(units)-1].deltaEnd
}

// Tracker applies update units to a table. The unit log itself lives in the
// table's versions: each Apply publishes a version whose log is one unit
// longer, sharing the backing array with its predecessors (a version only
// ever reads its own prefix).
type Tracker struct {
	t  *Table
	mu sync.Mutex // serialises Apply and Compact; readers never take it
}

// NewTracker creates an empty tracker for t.
func NewTracker(t *Table) *Tracker { return &Tracker{t: t} }

// Apply validates an update unit and publishes the table version that
// includes it. SCNs must be monotonically increasing per table. The work is
// O(unit): read views are materialised by the first reader, not here.
func (tr *Tracker) Apply(uu UpdateUnit) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t, v := tr.t, tr.t.cur.Load()
	if uu.SCN <= v.snap.scn {
		return fmt.Errorf("storage: UU SCN %d not newer than table SCN %d", uu.SCN, v.snap.scn)
	}
	units := v.snap.units
	a := appliedUU{UpdateUnit: uu, deltaEnd: deltaRows(units) + len(uu.Inserts)}
	rows := v.snap.baseRows() + a.deltaEnd
	for _, p := range uu.Patches {
		if err := checkRow(p.Row, rows); err != nil {
			return err
		}
		if p.Col < 0 || p.Col >= t.schema.NumCols() {
			return fmt.Errorf("storage: patch column %d out of range", p.Col)
		}
	}
	for _, d := range uu.Deletes {
		if err := checkRow(d, rows); err != nil {
			return err
		}
	}
	for _, row := range uu.Inserts {
		if len(row) != t.schema.NumCols() {
			return fmt.Errorf("storage: insert row has %d values, want %d", len(row), t.schema.NumCols())
		}
	}
	nv := &version{
		meta: v.meta, stats: refreshStats(v.stats, a),
		snap: Snapshot{t: t, scn: uu.SCN, chunks: v.snap.chunks, chunkRows: v.snap.chunkRows, units: append(units, a)},
	}
	// Epoch bump must precede version publication: a cache validator that
	// reads the epoch after its computation can then never pair pre-mutation
	// data with a post-mutation epoch (the stale-hit direction). The reverse
	// window — epoch bumped, data not yet visible — only over-invalidates.
	t.epoch.Add(1)
	t.cur.Store(nv)
	return nil
}

// refreshStats returns conservative table statistics for the version that
// adds unit a to one with statistics old. The contract the cost model and
// zone pruning rely on is that [Min, Max] stays a superset of the live encoded
// domain: patches and inserts widen the bounds to cover their values; the
// row count tracks inserts and deletes; NDV becomes inexact (a mutation can
// move it either way). Deletes never narrow bounds — a superset can only
// under-prune, never produce a wrong result. Compact recomputes exact
// statistics from scratch.
func refreshStats(old *TableStats, a appliedUU) *TableStats {
	if old == nil || len(a.Patches) == 0 && len(a.Inserts) == 0 && len(a.Deletes) == 0 {
		return old
	}
	// Copy-on-write: readers of older versions keep theirs.
	ns := &TableStats{Rows: old.Rows, Cols: append([]ColStats(nil), old.Cols...)}
	widen := func(col int, v int64) {
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
	for _, p := range a.Patches {
		widen(p.Col, p.Val)
	}
	for _, row := range a.Inserts {
		for c, v := range row {
			widen(c, v)
		}
	}
	ns.Rows += int64(len(a.Inserts)) - int64(len(a.Deletes))
	if ns.Rows < 0 {
		ns.Rows = 0
	}
	if len(a.Deletes) > 0 {
		for c := range ns.Cols {
			ns.Cols[c].Exact = false
		}
	}
	for c := range ns.Cols {
		if ns.Cols[c].NDV > ns.Rows && ns.Rows > 0 {
			ns.Cols[c].NDV = ns.Rows
		}
	}
	return ns
}

// checkRow validates the ordinal of a row a unit patches or deletes against
// the rows of the version it applies to.
func checkRow(row, rows int) error {
	if row < 0 || row >= rows {
		return fmt.Errorf("storage: row %d out of range (%d rows)", row, rows)
	}
	return nil
}

// PendingUnits returns the number of unmerged update units.
func (tr *Tracker) PendingUnits() int { return len(tr.t.cur.Load().snap.units) }

// LatestSCN is the SCN snapshot marker meaning "newest visible version".
const LatestSCN = ^uint64(0)

// Snapshot is an SCN-consistent read view over a table: base chunks with
// the valid patches and deletes applied, plus the visible inserted rows. It
// holds the base storage and log prefix it was cut from, so it reads the same
// data for as long as anyone keeps it, whatever Apply and Compact publish
// meanwhile. The views are built once, by the first reader.
type Snapshot struct {
	t         *Table
	scn       uint64
	chunks    []*Chunk // base storage, in build order
	chunkRows int      // rows of every base chunk but the last
	units     []appliedUU

	once  sync.Once
	views []ChunkView
	rows  int
}

// Snapshot returns the read view of the table at the given SCN: the current
// version's shared view when scn covers its newest unit, a private one over
// the log prefix otherwise.
func (t *Table) Snapshot(scn uint64) *Snapshot {
	cur := &t.cur.Load().snap
	n := len(cur.units)
	if n == 0 || scn >= cur.units[n-1].SCN {
		return cur
	}
	k := sort.Search(n, func(i int) bool { return cur.units[i].SCN > scn })
	return &Snapshot{t: t, scn: scn, chunks: cur.chunks, chunkRows: cur.chunkRows, units: cur.units[:k]}
}

// baseRows returns the number of rows in base storage.
func (s *Snapshot) baseRows() int {
	if len(s.chunks) == 0 {
		return 0
	}
	return (len(s.chunks)-1)*s.chunkRows + s.chunks[len(s.chunks)-1].rows
}

// Table returns the snapshot's table.
func (s *Snapshot) Table() *Table { return s.t }

// ChunkView is a readable chunk of a snapshot. Deleted, when non-nil, marks
// rows that must be skipped. Views are shared by every reader of the
// snapshot and must not be modified.
type ChunkView struct {
	Rows    int
	Deleted *bits.Vector
	chunk   *Chunk          // base chunk; nil for the delta chunk
	overlay []coltypes.Data // per column: the patched copy or delta column; zero where the base column stands
}

func (cv *ChunkView) overlaid(col int) bool {
	return cv.overlay != nil && cv.overlay[col].Width() != 0
}

// Data returns the (patched) column data of the view.
func (cv *ChunkView) Data(col int) coltypes.Data {
	if cv.overlaid(col) {
		return cv.overlay[col]
	}
	return cv.chunk.cols[col].Data()
}

// Zone returns the zone-map entry for a column of the view, when one is
// known to still bound the visible data. Patched columns and delta chunks
// report ok=false; views with deletions keep their base zones — a zone is
// then a superset of the live values, which can only under-prune.
func (cv *ChunkView) Zone(col int) (Zone, bool) {
	if cv.chunk == nil || cv.overlaid(col) {
		return Zone{}, false
	}
	return cv.chunk.Zone(col)
}

// Chunks returns all visible chunks: the base chunks (patched as needed)
// followed by one delta chunk holding the inserted rows, if any.
func (s *Snapshot) Chunks() []ChunkView {
	s.once.Do(s.materialise)
	return s.views
}

// TotalRows returns the number of visible rows (excluding deletions).
func (s *Snapshot) TotalRows() int {
	s.once.Do(s.materialise)
	return s.rows
}

// materialise builds the views in one pass over the visible units, applying
// each in log order: O(chunks + changes), plus one column copy per patched
// (chunk, column).
func (s *Snapshot) materialise() {
	ncols := s.t.schema.NumCols()
	nbase := len(s.chunks)
	views := make([]ChunkView, 0, nbase+1)
	for _, ch := range s.chunks {
		views = append(views, ChunkView{Rows: ch.rows, chunk: ch})
		s.rows += ch.rows
	}
	if n := deltaRows(s.units); n > 0 {
		// Delta rows may exceed the base width; store wide.
		cols := make([]coltypes.Data, ncols)
		for c := range cols {
			cols[c] = coltypes.New(coltypes.W8, n)
		}
		views = append(views, ChunkView{Rows: n, overlay: cols})
		s.rows += n
	}
	// view resolves a row ordinal to its view and row in the view.
	baseRows := s.baseRows()
	view := func(ord int) (*ChunkView, int) {
		if ord >= baseRows {
			return &views[nbase], ord - baseRows
		}
		return &views[ord/s.chunkRows], ord % s.chunkRows
	}
	inserted := 0
	for i := range s.units {
		u := &s.units[i]
		for _, row := range u.Inserts {
			for c, enc := range row {
				views[nbase].overlay[c].Set(inserted, enc)
			}
			inserted++
		}
		for _, p := range u.Patches {
			cv, r := view(p.Row)
			cv.patch(r, p.Col, p.Val)
		}
		for _, d := range u.Deletes {
			cv, r := view(d)
			if cv.Deleted == nil {
				cv.Deleted = bits.NewVector(cv.Rows)
			}
			if !cv.Deleted.Test(r) {
				cv.Deleted.Set(r)
				s.rows--
			}
		}
	}
	s.views = views
}

// patch sets one cell, copying the base column on its first patch and
// widening the copy when a value does not fit its width.
func (cv *ChunkView) patch(row, col int, enc int64) {
	if cv.overlay == nil {
		cv.overlay = make([]coltypes.Data, len(cv.chunk.cols))
	}
	d := cv.overlay[col]
	if d.Width() == 0 {
		base := cv.chunk.cols[col].Data()
		d = base.NewSame(base.Len())
		d.CopyFrom(0, base)
	}
	if w := d.Width(); enc < w.MinInt() || enc > w.MaxInt() {
		wide := coltypes.New(coltypes.W8, d.Len())
		for i := 0; i < d.Len(); i++ {
			wide.Set(i, d.Get(i))
		}
		d = wide
	}
	d.Set(row, enc)
	cv.overlay[col] = d
}

// Compact merges every applied update unit into base storage, rebuilding
// chunks and statistics, and empties the unit log. This is the background
// reclamation of outdated vectors (§4.3). The rebuilt base keeps the
// version's column codecs — scales and, above all, the dictionaries it shares
// with the host — and picks widths afresh. Rows are renumbered: after the
// call a row's ordinal is its rank among the live rows, so ordinals from
// before it no longer address the same rows.
func (t *Table) Compact() error {
	t.tracker.mu.Lock()
	defer t.tracker.mu.Unlock()
	v := t.cur.Load()
	meta := make([]ColumnMeta, len(v.meta))
	for c, m := range v.meta {
		meta[c] = ColumnMeta{Def: m.Def, Scale: m.Scale, Dict: m.Dict}
	}
	b := newBuilder(t.name, t.schema, meta, BuildOptions{ChunkRows: v.snap.chunkRows})
	for _, cv := range v.snap.Chunks() {
		for c := range meta {
			d := cv.Data(c)
			for r := 0; r < cv.Rows; r++ {
				if cv.Deleted == nil || !cv.Deleted.Test(r) {
					b.add(c, d.Get(r))
				}
			}
		}
	}
	nt, err := b.Build()
	if err != nil {
		return err
	}
	nv := nt.cur.Load()
	// Same ordering contract as Tracker.Apply: bump before the rebuilt base
	// becomes visible so validators never certify mid-compaction reads.
	t.epoch.Add(1)
	t.cur.Store(&version{
		meta: nv.meta, stats: nv.stats,
		snap: Snapshot{t: t, scn: v.snap.scn, chunks: nv.snap.chunks, chunkRows: nv.snap.chunkRows},
	})
	return nil
}
