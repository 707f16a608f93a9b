package ops

import (
	"sort"
	"sync"

	"rapid/internal/coltypes"
	"rapid/internal/mem"
	"rapid/internal/primitives"
	"rapid/internal/qef"
)

// widenGather writes src[rids[i]] widened to 64 bits into dst[i], with one
// width-specialised loop per column instead of a Get call per value.
func widenGather(dst []int64, src coltypes.Data, rids []uint32) {
	switch src.Width() {
	case coltypes.W1:
		widenGatherOf(dst, src.I8(), rids)
	case coltypes.W2:
		widenGatherOf(dst, src.I16(), rids)
	case coltypes.W4:
		widenGatherOf(dst, src.I32(), rids)
	default:
		widenGatherOf(dst, src.I64(), rids)
	}
}

func widenGatherOf[T coltypes.Elem](dst []int64, src []T, rids []uint32) {
	for i, r := range rids {
		dst[i] = int64(src[r])
	}
}

// unitSlots collects the output of a batch of work units without a lock: a
// unit writes exact-size, column-major chunks into the slot of its own index,
// and columns() lays the slots out in unit order — so the result does not
// depend on which unit finished first, each output column is allocated once
// at its final size, and nothing grows by append on the way. The chunks are
// staging on lease from the slab; columns() copies them to the heap.
type unitSlots struct {
	ncols  int
	slab   *mem.Slab
	byUnit [][][]int64 // [unit][chunk] -> ncols vectors of rows values, flat
}

// units sizes the collector for a batch of n work units leasing from slab;
// call it once the batch is built and before it runs.
func (u *unitSlots) units(slab *mem.Slab, n int) {
	u.slab, u.byUnit = slab, make([][][]int64, n)
}

// chunk reserves rows output rows in the unit's slot and returns one vector
// per column (the header slice is tile-lifetime scratch). The vectors are
// NOT zeroed: the unit writes every element of every one.
func (u *unitSlots) chunk(tc *qef.TaskCtx, unit, rows int) [][]int64 {
	flat := u.slab.Lease(u.ncols * rows)
	u.byUnit[unit] = append(u.byUnit[unit], flat)
	cols := tc.RowScratch(u.ncols)
	for c := range cols {
		cols[c] = flat[c*rows : (c+1)*rows]
	}
	return cols
}

// columns concatenates all chunks in unit order into heap columns and returns
// the chunks to the slab. Call it once, after the batch has returned.
func (u *unitSlots) columns() [][]int64 {
	if u.ncols == 0 {
		return nil
	}
	total := 0
	for _, slot := range u.byUnit {
		for _, flat := range slot {
			total += len(flat) / u.ncols
		}
	}
	cols := make([][]int64, u.ncols)
	for c := range cols {
		cols[c] = make([]int64, total)
	}
	at := 0
	for _, slot := range u.byUnit {
		for _, flat := range slot {
			rows := len(flat) / u.ncols
			for c := range cols {
				copy(cols[c][at:], flat[c*rows:(c+1)*rows])
			}
			at += rows
			u.slab.Return(flat)
		}
	}
	u.byUnit = nil
	return cols
}

// CollectSink terminates a task: tiles are materialized (selection applied)
// into a DRAM result buffer — the materialization at a task boundary of
// §5.2. One sink is shared by all parallel chain instances, but each core
// widens its tiles straight into blocks of its own and only notes which scan
// unit (TaskCtx.Seq) the rows came from; Relation() emits the runs in Seq
// order. The result is therefore in scan order whatever the worker count or
// the order units happened to finish in, and the tile path takes no lock.
type CollectSink struct {
	// OutCols describes the result columns (names/types for the Relation).
	OutCols []Col

	mu    sync.Mutex // guards creating cores in Open
	cores []collectCore
	slab  *mem.Slab // leases the blocks; set with cores
}

// Result blocks start at collectBlockRows and double up to
// collectBlockMaxRows: a full block is kept, never copied into a larger one,
// and the unused tail of the last block stays bounded.
const (
	collectBlockRows    = 4 << 10
	collectBlockMaxRows = 64 << 10
)

// collectCore is one core's share of the result: the block being filled and
// the runs of consecutive rows each scan unit contributed.
type collectCore struct {
	blk    [][]int64 // current block, one full-capacity vector per column
	fill   int       // rows used in blk
	leased [][]int64 // every block so far, as leased
	runs   []collectRun
	rows   int
}

// collectRun is n rows of one unit at blk[c][start:start+n].
type collectRun struct {
	seq, start, n int
	blk           [][]int64
}

// NewCollectSink builds a sink producing the given output column metadata.
func NewCollectSink(outCols []Col) *CollectSink {
	return &CollectSink{OutCols: outCols}
}

// DMEMSize: one widened 8-byte output vector per result column — the
// DMEM-side buffer the DMS drains to DRAM.
func (s *CollectSink) DMEMSize(tileRows int) int {
	return len(s.OutCols) * 8 * tileRows
}

// Open runs once per core, before its first tile.
func (s *CollectSink) Open(tc *qef.TaskCtx) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cores == nil {
		s.cores, s.slab = make([]collectCore, tc.Ctx.Workers()), tc.Ctx.Slab
	}
	return nil
}

func (s *CollectSink) Produce(tc *qef.TaskCtx, t *qef.Tile) error {
	ncols := len(s.OutCols)
	if len(t.Cols) < ncols {
		panic("ops: sink received fewer columns than declared")
	}
	n := t.QualifyingRows()
	if n == 0 || ncols == 0 {
		return nil
	}
	core := &s.cores[tc.CoreID]
	if core.blk == nil || len(core.blk[0])-core.fill < n {
		size := collectBlockRows
		if core.blk != nil {
			size = min(2*len(core.blk[0]), collectBlockMaxRows)
		}
		size = max(size, n)
		// Leased un-zeroed: only rows a run covers are ever read, and each
		// run is widened in full below before it is recorded.
		flat := s.slab.Lease(ncols * size)
		core.leased = append(core.leased, flat)
		core.blk = make([][]int64, ncols)
		for c := range core.blk {
			core.blk[c] = flat[c*size : (c+1)*size]
		}
		core.fill = 0
	}
	var rids []uint32
	if !t.Dense() {
		rids = t.AppendSelRIDs(tc.RIDScratch(n))
	}
	for c, vec := range core.blk {
		dst := vec[core.fill : core.fill+n]
		if rids != nil {
			widenGather(dst, t.Cols[c], rids)
			continue
		}
		col := t.Cols[c]
		if col.Len() != n {
			col = col.Slice(0, n)
		}
		primitives.WidenToI64(nil, col, dst)
	}
	if tc.Core != nil {
		// Bill the DRAM materialization through the DMS model.
		tc.AddTransfer(tc.DMS.WriteTiming(ncols, n, 8))
	}
	// A unit's next tile extends its run unless a new block began (fill 0).
	if last := len(core.runs) - 1; last >= 0 && core.runs[last].seq == tc.Seq && core.runs[last].start+core.runs[last].n == core.fill {
		core.runs[last].n += n
	} else {
		core.runs = append(core.runs, collectRun{seq: tc.Seq, start: core.fill, n: n, blk: core.blk})
	}
	core.fill += n
	core.rows += n
	return nil
}

func (s *CollectSink) Close(tc *qef.TaskCtx) error { return nil }

// Rows returns the number of collected rows. Like Relation it must only be
// called once the scan feeding the sink has returned.
func (s *CollectSink) Rows() int {
	rows := 0
	for i := range s.cores {
		rows += s.cores[i].rows
	}
	return rows
}

// Relation materializes the collected result in scan order. When everything
// landed in one block of one core, that block is the result — it leaves with
// the relation and is never returned to the slab; otherwise the cores' runs
// are merged by Seq into heap columns allocated once at the final size and
// the blocks go back. Call it once.
func (s *CollectSink) Relation() *Relation {
	var runs []collectRun
	blocks := 0
	for i := range s.cores {
		// Units of one core run in ascending index order, so each core's
		// runs are already sorted; a unit runs on one core, so Seq values
		// never tie across cores.
		runs = append(runs, s.cores[i].runs...)
		blocks += len(s.cores[i].leased)
	}
	bufs := make([][]int64, len(s.OutCols))
	switch {
	case blocks == 1:
		first, last := runs[0], runs[len(runs)-1]
		for c := range bufs {
			bufs[c] = first.blk[c][first.start : last.start+last.n : last.start+last.n]
		}
	case blocks > 1:
		sort.SliceStable(runs, func(i, j int) bool { return runs[i].seq < runs[j].seq })
		total := s.Rows()
		for c := range bufs {
			bufs[c] = make([]int64, 0, total)
			for _, r := range runs {
				bufs[c] = append(bufs[c], r.blk[c][r.start:r.start+r.n]...)
			}
		}
		for i := range s.cores {
			core := &s.cores[i]
			for _, flat := range core.leased {
				s.slab.Return(flat)
			}
			core.blk, core.leased, core.runs = nil, nil, nil
		}
	}
	cols := make([]Col, len(s.OutCols))
	for i, c := range s.OutCols {
		cols[i] = c
		cols[i].Data = coltypes.Of(bufs[i])
	}
	return MustRelation(cols)
}

// CountSink counts qualifying rows without materializing them (used by
// micro-benchmarks and COUNT(*) fast paths).
type CountSink struct {
	mu   sync.Mutex
	rows int64
}

func (s *CountSink) DMEMSize(int) int            { return 0 }
func (s *CountSink) Open(tc *qef.TaskCtx) error  { return nil }
func (s *CountSink) Close(tc *qef.TaskCtx) error { return nil }

func (s *CountSink) Produce(tc *qef.TaskCtx, t *qef.Tile) error {
	n := t.QualifyingRows()
	s.mu.Lock()
	s.rows += int64(n)
	s.mu.Unlock()
	return nil
}

// Rows returns the counted rows.
func (s *CountSink) Rows() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows
}
