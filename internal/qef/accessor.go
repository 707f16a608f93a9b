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

// Sequential streams the rows of the given DRAM chunks — equal-width column
// sets, read one after the other — in tiles of tileRows, invoking fn per tile
// after resetting the tile scratch. The DMEM cost is double buffering for
// every column (admitted once, reused across tiles). A tile is a view of the
// chunk it lies in; the rare tile that straddles a chunk boundary is gathered
// into tile scratch, which is what its DMEM buffer would hold, so the tiles
// and their bill are those of the same rows in one chunk.
func (a *Accessor) Sequential(chunks [][]coltypes.Data, tileRows int, fn func(*Tile) error) error {
	if len(chunks) == 0 {
		return nil
	}
	cols := chunks[0]
	rows := 0
	for _, ch := range chunks {
		if len(ch) > 0 {
			rows += ch[0].Len()
		}
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
	// makes them the floor that the per-tile ResetScratch rolls back to.
	// The tile is a local reused value so it survives that per-tile reset.
	a.tc.MarkScratch()
	defer a.tc.ReleaseScratch()
	views := a.tc.ColScratch(len(cols))
	a.tc.MarkScratch()
	defer a.tc.ReleaseScratch()
	var tile Tile
	k, off := 0, 0 // the chunk the next tile starts in, and the row inside it
	for lo := 0; lo < rows; lo += tileRows {
		if err := a.tc.Canceled(); err != nil {
			return err
		}
		a.tc.ResetScratch()
		n := min(tileRows, rows-lo)
		for off == chunks[k][0].Len() {
			k, off = k+1, 0
		}
		if off+n <= chunks[k][0].Len() {
			for i, c := range chunks[k] {
				views[i] = c.Slice(off, off+n)
			}
			off += n
		} else {
			for i, c := range cols {
				views[i] = a.tc.DataScratch(c.Width(), n)
			}
			for at := 0; at < n; {
				for off == chunks[k][0].Len() {
					k, off = k+1, 0
				}
				take := min(n-at, chunks[k][0].Len()-off)
				for i, c := range chunks[k] {
					views[i].CopyFrom(at, c.Slice(off, off+take))
				}
				at, off = at+take, off+take
			}
		}
		if dpu {
			a.tc.AddTransfer(a.tc.DMS.Read(views, 0, n))
		}
		tile = Tile{Cols: views, N: n}
		if err := fn(&tile); err != nil {
			return err
		}
	}
	return nil
}
