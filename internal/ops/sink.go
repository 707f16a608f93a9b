package ops

import (
	"sort"
	"sync"

	"rapid/internal/coltypes"
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
// unit writes exact-size, column-major chunks, leased for the query, into the
// slot of its own index, and chunks() lists the slots in unit order — so the
// result does not depend on which unit finished first.
type unitSlots struct {
	ncols  int
	ctx    *qef.Context
	byUnit [][][]int64 // [unit][chunk] -> ncols vectors of rows values, flat
}

// units sizes the collector for a batch of n work units of ctx; call it once
// the batch is built and before it runs.
func (u *unitSlots) units(ctx *qef.Context, n int) {
	u.ctx, u.byUnit = ctx, make([][][]int64, n)
}

// chunk reserves rows output rows in the unit's slot and returns one vector
// per column (the header slice is tile-lifetime scratch). The vectors are
// NOT zeroed: the unit writes every element of every one.
func (u *unitSlots) chunk(tc *qef.TaskCtx, unit, rows int) [][]int64 {
	flat := u.ctx.Lease(u.ncols * rows)
	u.byUnit[unit] = append(u.byUnit[unit], flat)
	cols := tc.Pool.RowHeaders(u.ncols)
	for c := range cols {
		cols[c] = flat[c*rows : (c+1)*rows]
	}
	return cols
}

// chunks returns every unit's chunks in unit order. Call it once, after the
// batch has returned.
func (u *unitSlots) chunks() (out [][]coltypes.Data) {
	var datas []coltypes.Data // grows by doubling; a chunk keeps the array it was cut from
	for _, slot := range u.byUnit {
		for _, flat := range slot {
			for c := 0; c < u.ncols; c++ {
				rows := len(flat) / u.ncols
				datas = append(datas, coltypes.Of(flat[c*rows:(c+1)*rows]))
			}
			out = append(out, datas[len(datas)-u.ncols:])
		}
	}
	return out
}

// CollectSink terminates a task: tiles are materialized (selection applied)
// into a DRAM result buffer — the materialization at a task boundary of
// §5.2. One sink is shared by all parallel chain instances, but each core
// widens its tiles straight into blocks of its own and only notes which scan
// unit (TaskCtx.Seq) the rows came from; Relation() lists the runs in Seq
// order as its chunks. The result is therefore in scan order whatever the
// worker count or the order units happened to finish in, and the tile path
// takes no lock.
type CollectSink struct {
	// OutCols describes the result columns (names/types for the Relation).
	OutCols []Col

	mu    sync.Mutex // guards creating cores in Open
	cores []collectCore
	ctx   *qef.Context // leases the blocks for the query; set with cores
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
	blk  [][]int64 // current block, one full-capacity vector per column
	fill int       // rows used in blk
	runs []collectRun
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
		s.cores, s.ctx = make([]collectCore, tc.Ctx.Workers()), tc.Ctx
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
		flat := s.ctx.Lease(ncols * size)
		core.blk = make([][]int64, ncols)
		for c := range core.blk {
			core.blk[c] = flat[c*size : (c+1)*size]
		}
		core.fill = 0
	}
	var rids []uint32
	if !t.Dense() {
		rids = t.AppendSelRIDs(tc.Pool.U32(n)[:0])
	}
	for c, vec := range core.blk {
		dst := vec[core.fill : core.fill+n]
		col := t.Cols[c]
		if rids != nil {
			widenGather(dst, col, rids)
			continue
		}
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
	return nil
}

func (s *CollectSink) Close(tc *qef.TaskCtx) error { return nil }

// Relation returns the collected result in scan order: the cores' runs,
// merged by Seq, are its chunks. Call it once.
func (s *CollectSink) Relation() *Relation {
	var runs []collectRun
	for i := range s.cores {
		// Units of one core run in ascending index order, so each core's
		// runs are already sorted; a unit runs on one core, so Seq values
		// never tie across cores.
		runs = append(runs, s.cores[i].runs...)
	}
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].seq < runs[j].seq })
	chunks := make([][]coltypes.Data, len(runs))
	for k, r := range runs {
		chunks[k] = make([]coltypes.Data, len(s.OutCols))
		for c := range chunks[k] {
			chunks[k][c] = coltypes.Of(r.blk[c][r.start : r.start+r.n])
		}
	}
	return MustRelation(s.OutCols, chunks...)
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
