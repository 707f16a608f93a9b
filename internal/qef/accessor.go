package qef

import "rapid/internal/coltypes"

// Accessor is the relation accessor (RA) of paper §5.1: operators declare a
// sequential scan of DRAM columns and the RA issues the DMS reads,
// double-buffers the transfers and hands the operator DMEM-resident tiles.
//
// In both modes a tile is a zero-copy view of the DRAM columns: operators
// never write into a tile they receive, so the view is what the DMEM buffer
// would hold. ModeDPU adds the billed model — the double buffers' DMEM
// admission and a DMS read per tile; ModeX86, the paper's software-only
// configuration, has no DPU memory hierarchy to bill.
type Accessor struct {
	tc *TaskCtx
}

// NewAccessor returns an accessor bound to a task context.
func NewAccessor(tc *TaskCtx) *Accessor { return &Accessor{tc: tc} }

// Sequential streams rows [0, rows) of the given DRAM columns in tiles of
// tileRows, invoking fn per tile. The DMEM cost is double buffering for
// every column (admitted once, reused across tiles).
func (a *Accessor) Sequential(cols []coltypes.Data, tileRows int, fn func(*Tile) error) error {
	rows := 0
	if len(cols) > 0 {
		rows = cols[0].Len()
	}
	if tileRows < MinTileRows {
		tileRows = MinTileRows
	}
	dpu := a.tc.Core != nil
	if dpu {
		// Admit the double buffers in DMEM. Wide rows shrink the tile until
		// every column's double buffer fits the scratchpad (§6.4 resilience:
		// degrade the vector size, don't abort); only a tile below the
		// minimum propagates exhaustion.
		a.tc.DMEM.Mark()
		defer a.tc.DMEM.Release()
		rowBytes := 0
		for _, c := range cols {
			rowBytes += c.Width().Bytes()
		}
		degraded := false
		for tileRows > MinTileRows && 2*tileRows*rowBytes > a.tc.DMEM.Free() {
			tileRows /= 2
			degraded = true
		}
		if tileRows < MinTileRows {
			tileRows = MinTileRows
		}
		if degraded {
			a.tc.Ctx.CountMetric("qef_tile_degradations", 1)
		}
		for _, c := range cols {
			if err := a.tc.DMEM.Alloc(2 * tileRows * c.Width().Bytes()); err != nil {
				return err
			}
		}
	}
	// The view headers are unit-lifetime pool buffers; the inner MarkScratch
	// makes them the floor that the callback's ResetScratch rolls back to.
	// The tile is a local reused value so it survives that per-tile reset.
	a.tc.MarkScratch()
	defer a.tc.ReleaseScratch()
	views := a.tc.ColScratch(len(cols))
	a.tc.MarkScratch()
	defer a.tc.ReleaseScratch()
	var tile Tile
	for lo := 0; lo < rows; lo += tileRows {
		if err := a.tc.Canceled(); err != nil {
			return err
		}
		hi := min(lo+tileRows, rows)
		for i, c := range cols {
			views[i] = c.Slice(lo, hi)
		}
		if dpu {
			a.tc.AddTransfer(a.tc.DMS.Read(cols, lo, hi))
		}
		tile = Tile{Cols: views, N: hi - lo}
		if err := fn(&tile); err != nil {
			return err
		}
	}
	return nil
}
