package ops

import (
	"rapid/internal/bits"
	"rapid/internal/coltypes"
	"rapid/internal/qef"
	"rapid/internal/storage"
)

// TableScan streams a storage snapshot through operator chains: one work
// unit per chunk, distributed over the dpCores, each unit pulling its
// chunk's columns tile by tile through the relation accessor. Deleted rows
// (update-unit overlay) become the tile's initial selection vector.
//
// When prune is non-nil, chunks whose zone maps prove the predicate cannot
// match are skipped BEFORE a work unit is created for them: a pruned chunk
// is never admitted to DMEM, moved over the DMS, or charged cycles/energy —
// the cheapest tile is the one the DPU never touches. Chunk-level
// pruned/scanned/total counts land on the active span; the profile asserts
// pruned+scanned == total.
//
// A unit sets TaskCtx.Zone to its chunk's zone maps while it runs, and ends
// with TaskCtx.EndUnit, which flushes the operators that keep a table per
// unit (PreAggOp).
//
// Each core owns ONE chain instance for the whole scan (operator state such
// as group tables is per core, merged at Close — the paper's merge-operator
// pattern); chainFor builds the instances, and the sinks/mergers they end
// in are shared and thread-safe.
func TableScan(ctx *qef.Context, snap *storage.Snapshot, cols []int, tileRows int, prune Predicate, chainFor func() qef.Operator) error {
	chunks := snap.Chunks()
	span := ctx.ActiveSpan()
	span.AddTilesTotal(int64(len(chunks)))
	units := make([]qef.WorkUnit, 0, len(chunks))
	chains := make([]qef.Operator, ctx.Workers())
	pruned := int64(0)
	for i := range chunks {
		cv := &chunks[i]
		if prune != nil && !ctx.NoPrune && ZoneReject(prune, TileZone(cv, cols)) {
			pruned++
			continue
		}
		seq := len(units)
		units = append(units, func(tc *qef.TaskCtx) error {
			tc.Seq = seq
			tc.SpanTileChunk()
			head, err := chainOf(tc, chains, chainFor)
			if err != nil {
				return err
			}
			data := tc.Pool.Headers(len(cols))
			for i, c := range cols {
				data[i] = cv.Data(c)
			}
			tc.Zone = TileZone(cv, cols)
			base := 0
			err = qef.Sequential(tc, [][]coltypes.Data{data}, tileRows, func(t *qef.Tile) error {
				if cv.Deleted != nil {
					if sel := tc.Pool.BV(t.N); liveSel(sel, cv.Deleted, base) {
						t.Sel = sel
					}
				}
				base += t.N
				return emitTo(tc, head, t)
			})
			if err != nil {
				return err
			}
			return tc.EndUnit()
		})
	}
	if pruned > 0 {
		span.AddTilesPruned(pruned)
		ctx.AddTilesPruned(pruned)
		ctx.CountMetric("rapid_tiles_pruned_total", pruned)
	}
	if err := ctx.RunParallel(units); err != nil {
		return err
	}
	return closeChains(ctx, chains, len(units))
}

// liveSel sets sel to the rows of deleted[base : base+sel.Len()] that are NOT
// set and reports whether any was (when none is, the tile needs no selection
// and sel is left cleared). It works a word at a time; base is not
// word-aligned in general, so each word is stitched from two neighbours.
func liveSel(sel, deleted *bits.Vector, base int) bool {
	src, dst := deleted.Words(), sel.Words()
	w, sh := base/64, uint(base%64)
	dead := uint64(0)
	for j := range dst {
		d := src[w+j] >> sh
		if sh != 0 && w+j+1 < len(src) {
			d |= src[w+j+1] << (64 - sh)
		}
		if rest := sel.Len() - 64*j; rest < 64 {
			d &= 1<<uint(rest) - 1 // rows past the tile
		}
		dst[j] = d
		dead |= d
	}
	if dead == 0 {
		return false
	}
	sel.Not(sel)
	return true
}

// TileZone adapts a ChunkView's zone maps to the scanned tile layout: the
// predicate's column indices address positions in cols, not table columns.
// It is the zone ZoneReject judges a chunk by, at scan time and when the
// compiler estimates the rows that survive pruning.
func TileZone(cv *storage.ChunkView, cols []int) func(int) (storage.Zone, bool) {
	return func(c int) (storage.Zone, bool) {
		if c < 0 || c >= len(cols) {
			return storage.Zone{}, false
		}
		return cv.Zone(cols[c])
	}
}

// RelationScan streams a materialized relation through chains, splitting
// rows into per-core spans of whole tiles, cut at row offsets, not chunks.
func RelationScan(ctx *qef.Context, rel *Relation, tileRows int, chainFor func() qef.Operator) error {
	rows := rel.Rows()
	if tileRows < qef.MinTileRows {
		tileRows = qef.MinTileRows
	}
	// Contiguous spans of several tiles each so every core gets work.
	spanRows := tileRows * 4
	if min := (rows + ctx.Workers() - 1) / ctx.Workers(); spanRows < min {
		spanRows = min
	}
	var units []qef.WorkUnit
	chains := make([]qef.Operator, ctx.Workers())
	for lo := 0; lo < rows; lo += spanRows {
		var span [][]coltypes.Data
		eachSegment(rel.Chunks, lo, min(lo+spanRows, rows), func(ch []coltypes.Data, a, b, _ int) {
			piece := make([]coltypes.Data, len(ch))
			for i, d := range ch {
				piece[i] = d.Slice(a, b)
			}
			span = append(span, piece)
		})
		seq := len(units)
		units = append(units, func(tc *qef.TaskCtx) error {
			tc.Seq = seq
			head, err := chainOf(tc, chains, chainFor)
			if err != nil {
				return err
			}
			return qef.Sequential(tc, span, tileRows, func(t *qef.Tile) error {
				return emitTo(tc, head, t)
			})
		})
	}
	if rows == 0 {
		// Still open/close one chain so scalar aggregates emit their
		// identity row.
		units = append(units, func(tc *qef.TaskCtx) error {
			_, err := chainOf(tc, chains, chainFor)
			return err
		})
	}
	if err := ctx.RunParallel(units); err != nil {
		return err
	}
	return closeChains(ctx, chains, len(units))
}

// chainOf returns the core's chain, opening a fresh instance on first use.
func chainOf(tc *qef.TaskCtx, chains []qef.Operator, chainFor func() qef.Operator) (qef.Operator, error) {
	if chains[tc.CoreID] == nil {
		head := chainFor()
		if err := head.Open(tc); err != nil {
			return nil, err
		}
		chains[tc.CoreID] = head
	}
	return chains[tc.CoreID], nil
}

func emitTo(tc *qef.TaskCtx, head qef.Operator, t *qef.Tile) error {
	tc.SpanTileIn(t.N)
	return head.Produce(tc, t)
}

// closeChains closes every per-core chain on its own core: unit i of
// RunParallel lands on worker i%workers, so the first `workers` units pin
// one close per core. Rows an operator emits at Close sort after the scan's
// own (Seq continues from scanUnits), in core order.
func closeChains(ctx *qef.Context, chains []qef.Operator, scanUnits int) error {
	units := make([]qef.WorkUnit, len(chains))
	for w := range chains {
		units[w] = func(tc *qef.TaskCtx) error {
			if chains[w] == nil {
				return nil
			}
			tc.Seq = scanUnits + w
			return chains[w].Close(tc)
		}
	}
	return ctx.RunParallel(units)
}
