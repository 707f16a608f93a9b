package qcomp

import (
	"rapid/internal/coltypes"
	"rapid/internal/dms"
	"rapid/internal/dpu"
	"rapid/internal/mem"
	"rapid/internal/ops"
	"rapid/internal/plan"
	"rapid/internal/primitives"
	"rapid/internal/storage"
)

// preAgg is a pipeline's armed pre-aggregation step (ops.PreAggOp): each
// scan unit folds its rows into a table indexed by the keys' offsets from
// their zone minima, and the partitioned group-by above merges the states.
type preAgg struct {
	op    ops.PreAggOp // the step; each core's chain runs a copy
	slots int          // the largest table an armed unit of the scan takes
	rows  int64        // the bound on the rows the step emits
}

// merge returns the group-by that merges the step's output, keys first and
// then one column per state: SUM over SUM, COUNT and COUNT(*) states, MIN
// over MIN, MAX over MAX. Its states are the step's, in order, so finalize
// reads them as it would have read the unmerged group-by's.
func (pa *preAgg) merge() (groupCols []int, specs []ops.AggSpec, prog *ops.Program) {
	nk := len(pa.op.Keys)
	groupCols = allIdx(nk)
	var b ops.ProgramBuilder
	specs = make([]ops.AggSpec, len(pa.op.States))
	for s, st := range pa.op.States {
		specs[s] = ops.AggSpec{Kind: st.Kind.Merge(), Arg: b.Col(nk + s)}
	}
	return groupCols, specs, b.Program()
}

// rowCycles is the step's modeled cycles for every row it reads.
func (pa *preAgg) rowCycles() float64 {
	folds, stars := pa.op.Folds()
	return primitives.PreAggRowCost(len(pa.op.Keys), folds, stars)
}

// addPreAgg arms a pre-aggregation step at the end of p, a base-table scan
// pipeline that collects the input of a partitioned group-by over groupCols
// and specs, and returns it; nil when it does not arm. The group-by's input
// is then p's (keys, states) rows. It arms when:
//
//   - every key is a scanned column (a projection may keep it, not compute
//     it), whose zone maps bound it per chunk, and every state's argument a
//     bare column (the step reads the tile; it evaluates no expression);
//   - the table fits a slot cap: the most slots the step's DMEMSize leaves
//     the pipeline's tiles at the rows they have with the step's rows
//     collected (and no more slots than a tile has rows, the most the
//     Collect stages at once);
//   - the bound pays: Σ over the scanned chunks of min(rows_c, slots_c),
//     where slots_c is the product of the keys' zone ranges of chunk c, or
//     rows_c for a chunk that passes through (no zone, or over the cap), is
//     at most primitives.PreAggBreakEven of those rows, with swRounds the
//     group-by's software partitioning rounds, less the rows whose savings
//     pay for the scan descriptors of smaller tiles when the step's wider
//     rows shrink them.
func (p *pipelineNode) addPreAgg(groupCols []int, specs []ops.AggSpec, prog *ops.Program, swRounds int) *preAgg {
	if p.snap == nil || p.terminal != termCollect {
		return nil
	}
	pa := &preAgg{op: ops.PreAggOp{Keys: make([]ops.PreAggKey, len(groupCols)), States: make([]ops.PreAggState, len(specs))}}
	for i, s := range specs {
		pa.op.States[i].Kind = s.Kind
		if s.Kind == ops.AggCountStar {
			continue
		}
		n := prog.Nodes[s.Arg]
		if n.Op != ops.ExprCol {
			return nil
		}
		pa.op.States[i].Col = n.Col
	}
	chunks := p.snap.Chunks()
	for i, g := range groupCols {
		scan := p.scanCol(g)
		if scan < 0 {
			return nil
		}
		// The key leaves the table at the width of every zone of the table,
		// scanned or not: a unit outside it passes through.
		lo, hi, zoned := int64(0), int64(0), false
		for c := range chunks {
			if z, ok := chunks[c].Zone(p.scanCols[scan]); ok {
				if !zoned {
					lo, hi, zoned = z.Min, z.Max, true
				}
				lo, hi = min(lo, z.Min), max(hi, z.Max)
			}
		}
		if !zoned {
			return nil
		}
		pa.op.Keys[i] = ops.PreAggKey{Col: g, Scan: scan, Width: coltypes.WidthFor(lo, hi)}
	}

	// The slot cap: the largest table whose claim leaves the pipeline's tiles
	// at the rows they have with the step's rows collected, and no more slots
	// than a tile has rows, the most the Collect stages at once.
	with := *p
	with.steps = append(append([]pipeStep(nil), p.steps...), pipeStep{kind: stepPreAgg, pre: pa})
	with.cols = p.preAggCols(groupCols, specs)
	budget := mem.DMEMSize - dmemReserve
	tile := func(slots int) int {
		pa.op.Slots = slots
		return maxTileRowsFor(with.opReqs(nil), budget)
	}
	tileWith := tile(0)
	lo, hi := 0, tileWith // tile(lo) == tileWith, or lo is 0
	for lo < hi {
		if mid := (lo + hi + 1) / 2; tile(mid) == tileWith {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if lo == 0 {
		return nil
	}
	pa.op.Slots = lo

	var in int64
	p.scannedChunks(func(cv *storage.ChunkView, live int64) {
		in += live
		slots := pa.op.UnitSlots(ops.TileZone(cv, p.scanCols))
		if slots == 0 {
			pa.rows += live
			return
		}
		pa.rows += min(live, int64(slots))
		pa.slots = max(pa.slots, slots)
	})
	if pa.slots == 0 {
		return nil
	}
	// The step pays per row below primitives.PreAggBreakEven; where its
	// wider rows shrink the tiles, the scan's extra descriptors are paid out
	// of the rows it drops too (their DMS time, as the join filter's rule
	// prices them).
	folds, stars := pa.op.Folds()
	dm := dms.DefaultModel()
	cyclesPerByte := dpuCores * dpu.FreqHz / dm.PeakBytesPerSec
	rho := primitives.PreAggBreakEven(len(groupCols), folds, stars, len(p.cols), swRounds, cyclesPerByte)
	saved := primitives.PreAggDroppedCost(len(groupCols), folds, stars, len(p.cols), swRounds, cyclesPerByte)
	srcRows, srcCols := float64(p.srcRows()), float64(p.srcCols())
	tile0 := ChooseTileRows(p.opReqs(nil))
	descCycles := (dm.DescriptorIssueNs + dm.PageSwitchBaseNs + dm.PageSwitchPerColNs*srcCols) * 1e-9 * dpu.FreqHz * dpuCores * srcCols
	tileCycles := max(srcRows/float64(tileWith)-srcRows/float64(tile0), 0) * descCycles
	if float64(pa.rows) > rho*float64(in)-tileCycles/saved {
		return nil
	}
	p.steps, p.cols = with.steps, with.cols
	p.est = min(p.est, pa.rows)
	return pa
}

// scanCol returns the scanned column (a position in p.scanCols) that column
// c of the pipeline's output is, kept through its projections; -1 when a
// projection computes it.
func (p *pipelineNode) scanCol(c int) int {
	for i := len(p.steps) - 1; i >= 0; i-- {
		if s := p.steps[i]; s.kind == stepProject {
			if c = s.proj[c].Keep; c < 0 {
				return -1
			}
		}
	}
	return c
}

// preAggCols is the pipeline's output with a pre-aggregation step: the keys,
// then one integer column per state.
func (p *pipelineNode) preAggCols(groupCols []int, specs []ops.AggSpec) []colInfo {
	cols := make([]colInfo, 0, len(groupCols)+len(specs))
	for _, g := range groupCols {
		cols = append(cols, p.cols[g])
	}
	for _, s := range specs {
		cols = append(cols, colInfo{field: plan.Field{Name: s.Name, Type: coltypes.Int()}})
	}
	return cols
}
