package ops

import (
	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/primitives"
	"rapid/internal/qef"
)

// GroupByPartitioned is the high-NDV group-by strategy of §5.4: a
// partitioning phase distributes distinct groups over dpCores so each
// partition's hash table fits in DMEM, then every core aggregates its
// partitions independently — no merge needed because partitions hold
// disjoint groups. If a partition holds more groups than estimated, it is
// re-partitioned at runtime. prog holds the specs' arguments.
func GroupByPartitioned(ctx *qef.Context, rel *Relation, groupCols []int, specs []AggSpec, prog *Program, scheme PartScheme, maxGroupsPerPart int) (*Relation, error) {
	parts, err := PartitionByHash(ctx, rel.Chunks, groupCols, scheme, qef.DefaultTileRows)
	if err != nil {
		return nil, err
	}
	defer parts.Release() // after RunParallel; the collector holds copies
	out := &groupCollector{
		nKeys: len(groupCols),
		specs: specs,
		slots: unitSlots{ncols: len(groupCols) + len(specs)},
	}
	units := make([]qef.WorkUnit, 0, parts.NumPartitions())
	for p := 0; p < parts.NumPartitions(); p++ {
		units = append(units, func(tc *qef.TaskCtx) error {
			return groupOnePartition(tc, p, parts.Cols[p], parts.Hashes[p], parts.Bits, groupCols, specs, prog, maxGroupsPerPart, out)
		})
	}
	out.slots.units(ctx, len(units))
	if err := ctx.RunParallel(units); err != nil {
		return nil, err
	}
	cols := make([]Col, 0, len(groupCols)+len(specs))
	for _, g := range groupCols {
		cols = append(cols, rel.Cols[g])
	}
	for _, s := range specs {
		cols = append(cols, Col{Name: s.Name, Type: coltypes.Int()})
	}
	return MustRelation(cols, out.slots.chunks()...), nil
}

// groupOnePartition aggregates one partition as work unit `unit`,
// re-partitioning on overflow (the runtime adaptation when statistics
// underestimated the NDV).
func groupOnePartition(tc *qef.TaskCtx, unit int, cols []coltypes.Data, hv []uint32, usedBits uint, groupCols []int, specs []AggSpec, prog *Program, maxGroups int, out *groupCollector) error {
	n := len(hv)
	if n == 0 {
		return nil
	}
	tc.DMEM.Mark()
	defer tc.DMEM.Release()
	cap := min(maxGroups, n)
	if err := tc.DMEM.Alloc(GroupTableSizeBytes(cap, len(groupCols))); err != nil {
		// The table itself cannot fit: re-partition immediately.
		tc.DMEM.Release()
		tc.DMEM.Mark()
		return regroupSplit(tc, unit, cols, hv, usedBits, groupCols, specs, prog, maxGroups, out)
	}
	// Pool scope: the table, the accumulators, the widened keys and group ids
	// die with this partition; a re-split runs several partitions inside one
	// unit.
	tc.Pool.Mark()
	defer tc.Pool.Release()
	table := newGroupTable(cap, tc.Pool.U32(nextPow2(2*cap)+cap), tc.Pool.I64(len(groupCols)*cap))
	keys := tc.Pool.RowHeaders(len(groupCols))
	for k, g := range groupCols {
		keys[k] = primitives.WidenToI64(nil, cols[g], tc.Pool.I64(n))
	}
	gids := tc.Pool.U32(n)
	if !table.findGroups(gids, hv, keys) {
		// NDV above estimate: split this partition further and retry each
		// half with a fresh table.
		return regroupSplit(tc, unit, cols, hv, usedBits, groupCols, specs, prog, maxGroups, out)
	}
	if c := tc.Core; c != nil {
		c.Charge(dpu.Cycles(3 * n))
	}
	// One accumulator array per spec, over the partition's one evaluation
	// of the program.
	accs := tc.Pool.RowHeaders(len(specs))
	part, slots := tc.TileScratch(cols, n), prog.Slots(tc)
	for s, spec := range specs {
		accs[s] = spec.Kind.newAcc(tc.Pool.I64(cap))
		var vals []int64
		if spec.Kind != AggCountStar {
			vals = slots.Get(tc, part, spec.Arg)
		}
		spec.Kind.accumulate(tc.Core, accs[s], gids, vals)
	}
	out.add(tc, unit, &table, accs)
	return nil
}

func regroupSplit(tc *qef.TaskCtx, unit int, cols []coltypes.Data, hv []uint32, usedBits uint, groupCols []int, specs []AggSpec, prog *Program, maxGroups int, out *groupCollector) error {
	const sub = 4
	split, err := splitPartition(nil, tc.Ctx.Slab, [][]coltypes.Data{cols}, hv, []int{sub}, usedBits)
	if err != nil {
		return err
	}
	defer split.Release() // the recursion below stays inside this unit
	for p := 0; p < sub; p++ {
		if split.Rows(p) == len(hv) {
			// All rows share the same hash bits (e.g. a single huge group
			// cluster): splitting cannot help; grow the table instead.
			return groupOnePartition(tc, unit, split.Cols[p], split.Hashes[p], split.Bits, groupCols, specs, prog, maxGroups*4, out)
		}
		if err := groupOnePartition(tc, unit, split.Cols[p], split.Hashes[p], split.Bits, groupCols, specs, prog, maxGroups, out); err != nil {
			return err
		}
	}
	return nil
}

// groupCollector accumulates finished partitions' groups. Groups are
// disjoint across partitions, so the partitions' chunks are the result — in
// partition (work unit) order, see unitSlots.
type groupCollector struct {
	nKeys int
	specs []AggSpec
	slots unitSlots // key columns, then one value column per spec
}

func (g *groupCollector) add(tc *qef.TaskCtx, unit int, table *GroupTable, accs [][]int64) {
	n := table.NumGroups()
	if n == 0 {
		return
	}
	// The un-zeroed chunk is overwritten in full: the table holds exactly n
	// keys per column, and every accumulator array has at least n entries.
	rows := g.slots.chunk(tc, unit, n)
	for k := 0; k < g.nKeys; k++ {
		copy(rows[k], table.keys[k*table.cap:])
	}
	for s := range g.specs {
		copy(rows[g.nKeys+s], accs[s])
	}
}
