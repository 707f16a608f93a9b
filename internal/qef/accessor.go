package qef

import "rapid/internal/coltypes"

// Sequential is the relation accessor (RA) of paper §5.1: an operator
// declares a sequential scan of DRAM columns and the RA issues the DMS reads,
// double-buffers the transfers and hands the operator DMEM-resident tiles.
// It streams the rows of the given DRAM chunks — equal-width column sets,
// read one after the other — in tiles of tileRows on tc's core, invoking fn
// per tile after resetting the tile scratch. The DMEM cost is double
// buffering for every column (admitted once, reused across tiles).
//
// In both modes a tile is a zero-copy view of the DRAM columns: operators
// never write into a tile they receive, so the view is what the DMEM buffer
// would hold. The rare tile that straddles a chunk boundary is gathered into
// tile scratch, which is what its DMEM buffer would hold, so the tiles and
// their bill are those of the same rows in one chunk. ModeDPU adds the billed
// model — the double buffers' DMEM admission and a DMS read per tile; ModeX86,
// the paper's software-only configuration, has no DPU memory hierarchy to
// bill.
func Sequential(tc *TaskCtx, chunks [][]coltypes.Data, tileRows int, fn func(*Tile) error) error {
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
	dpu := tc.Core != nil
	if dpu {
		// Admit the double buffers in DMEM. Wide rows shrink the tile until
		// every column's double buffer fits the scratchpad (§6.4 resilience:
		// degrade the vector size, don't abort); only a tile below the
		// minimum propagates exhaustion.
		tc.DMEM.Mark()
		defer tc.DMEM.Release()
		rowBytes := 0
		for _, c := range cols {
			rowBytes += c.Width().Bytes()
		}
		degraded := false
		for tileRows > MinTileRows && 2*tileRows*rowBytes > tc.DMEM.Free() {
			tileRows /= 2
			degraded = true
		}
		if tileRows < MinTileRows {
			tileRows = MinTileRows
		}
		if degraded {
			tc.Ctx.CountMetric("qef_tile_degradations", 1)
		}
		for _, c := range cols {
			if err := tc.DMEM.Alloc(2 * tileRows * c.Width().Bytes()); err != nil {
				return err
			}
		}
	}
	// The view headers are unit-lifetime pool buffers; the inner Mark makes
	// them the floor that the per-tile ResetScratch rolls back to. The tile
	// is a local reused value so it survives that per-tile reset.
	tc.Pool.Mark()
	defer tc.Pool.Release()
	views := tc.Pool.Headers(len(cols))
	tc.Pool.Mark()
	defer tc.Pool.Release()
	var tile Tile
	k, off := 0, 0 // the chunk the next tile starts in, and the row inside it
	for lo := 0; lo < rows; lo += tileRows {
		if err := tc.Ctx.Err(); err != nil {
			return err
		}
		tc.ResetScratch()
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
				views[i] = tc.Pool.Data(c.Width(), n)
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
			tc.AddTransfer(tc.DMS.Read(views, 0, n))
		}
		tile = Tile{Cols: views, N: n}
		if err := fn(&tile); err != nil {
			return err
		}
	}
	return nil
}
