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
// re-partitioned at runtime.
func GroupByPartitioned(ctx *qef.Context, rel *Relation, groupCols []int, specs []AggSpec, scheme PartScheme, maxGroupsPerPart int) (*Relation, error) {
	parts, err := PartitionByHash(ctx, rel.Datas(), groupCols, scheme, qef.DefaultTileRows)
	if err != nil {
		return nil, err
	}
	defer parts.Release() // after RunParallel; the collector holds copies
	if maxGroupsPerPart <= 0 {
		maxGroupsPerPart = 4096
	}
	out := &groupCollector{
		nKeys: len(groupCols),
		specs: specs,
		slots: unitSlots{ncols: len(groupCols) + len(specs)},
	}
	units := make([]qef.WorkUnit, 0, parts.NumPartitions())
	for p := 0; p < parts.NumPartitions(); p++ {
		units = append(units, func(tc *qef.TaskCtx) error {
			return groupOnePartition(tc, p, parts.Cols[p], parts.Hashes[p], parts.Bits, groupCols, specs, maxGroupsPerPart, out)
		})
	}
	out.slots.units(ctx.Slab, len(units))
	if err := ctx.RunParallel(units); err != nil {
		return nil, err
	}
	keyCols := make([]Col, len(groupCols))
	outNames := make([]string, len(specs))
	for i, g := range groupCols {
		keyCols[i] = rel.Cols[g]
	}
	for i, s := range specs {
		outNames[i] = s.Name
	}
	return out.relation(keyCols, outNames), nil
}

// groupOnePartition aggregates one partition as work unit `unit`,
// re-partitioning on overflow (the runtime adaptation when statistics
// underestimated the NDV).
func groupOnePartition(tc *qef.TaskCtx, unit int, cols []coltypes.Data, hv []uint32, usedBits uint, groupCols []int, specs []AggSpec, maxGroups int, out *groupCollector) error {
	n := len(hv)
	if n == 0 {
		return nil
	}
	tc.DMEM.Mark()
	defer tc.DMEM.Release()
	cap := maxGroups
	if n < cap {
		cap = n
	}
	if err := tc.DMEM.Alloc(GroupTableSizeBytes(cap, len(groupCols))); err != nil {
		// The table itself cannot fit: re-partition immediately.
		tc.DMEM.Release()
		tc.DMEM.Mark()
		return regroupSplit(tc, unit, cols, hv, usedBits, groupCols, specs, maxGroups, out)
	}
	table := NewGroupTable(cap, len(groupCols))
	aggs := make([]*primitives.GroupedAgg, len(specs))
	for i := range aggs {
		aggs[i] = primitives.NewGroupedAgg(cap)
	}
	// Pool scope: the widened keys and group ids die with this partition; a
	// re-split runs several partitions inside one unit.
	tc.MarkScratch()
	defer tc.ReleaseScratch()
	keys := tc.RowScratch(len(groupCols))
	for k, g := range groupCols {
		keys[k] = primitives.WidenToI64(nil, cols[g], tc.I64Scratch(n))
	}
	keyBuf := tc.I64Scratch(len(groupCols))
	gids := tc.U32Scratch(n)
	for i := 0; i < n; i++ {
		for k, col := range keys {
			keyBuf[k] = col[i]
		}
		gid := table.FindOrAdd(hv[i], keyBuf)
		if gid < 0 {
			// NDV above estimate: split this partition further and retry
			// each half with a fresh table.
			return regroupSplit(tc, unit, cols, hv, usedBits, groupCols, specs, maxGroups, out)
		}
		gids[i] = uint32(gid)
	}
	if c := tc.Core; c != nil {
		c.Charge(dpu.Cycles(3 * n))
	}
	for s, spec := range specs {
		if spec.Kind == AggCountStar {
			aggs[s].AccumulateCounts(tc.Core, gids)
			continue
		}
		tile := qef.NewTile(cols, n)
		vals := spec.Expr.Eval(tc, tile)
		aggs[s].Accumulate(tc.Core, gids, vals)
	}
	out.add(tc, unit, table, aggs)
	return nil
}

func regroupSplit(tc *qef.TaskCtx, unit int, cols []coltypes.Data, hv []uint32, usedBits uint, groupCols []int, specs []AggSpec, maxGroups int, out *groupCollector) error {
	const sub = 4
	split, err := splitPartition(nil, tc.Ctx.Slab, cols, hv, sub, usedBits)
	if err != nil {
		return err
	}
	defer split.Release() // the recursion below stays inside this unit
	for p := 0; p < sub; p++ {
		if split.Rows(p) == len(hv) {
			// All rows share the same hash bits (e.g. a single huge group
			// cluster): splitting cannot help; grow the table instead.
			return groupOnePartition(tc, unit, split.Cols[p], split.Hashes[p], split.Bits, groupCols, specs, maxGroups*4, out)
		}
		if err := groupOnePartition(tc, unit, split.Cols[p], split.Hashes[p], split.Bits, groupCols, specs, maxGroups, out); err != nil {
			return err
		}
	}
	return nil
}

// groupCollector accumulates finished partitions' groups. Groups are
// disjoint across partitions, so this is a concatenation — in partition
// (work unit) order, see unitSlots.
type groupCollector struct {
	nKeys int
	specs []AggSpec
	slots unitSlots // key columns, then one value column per spec
}

func (g *groupCollector) add(tc *qef.TaskCtx, unit int, table *GroupTable, aggs []*primitives.GroupedAgg) {
	n := table.NumGroups()
	if n == 0 {
		return
	}
	// The un-zeroed chunk is overwritten in full: the table holds exactly n
	// keys per column, and every aggregate array has at least n entries.
	rows := g.slots.chunk(tc, unit, n)
	for k := 0; k < g.nKeys; k++ {
		copy(rows[k], table.keyCols[k])
	}
	for s, spec := range g.specs {
		vals := aggs[s].Counts
		switch spec.Kind {
		case AggSum:
			vals = aggs[s].Sums
		case AggMin:
			vals = aggs[s].Mins
		case AggMax:
			vals = aggs[s].Maxs
		}
		copy(rows[g.nKeys+s], vals)
	}
}

func (g *groupCollector) relation(keyCols []Col, outNames []string) *Relation {
	data := g.slots.columns()
	cols := make([]Col, 0, len(data))
	for k := 0; k < g.nKeys; k++ {
		c := keyCols[k]
		c.Data = coltypes.Of(data[k])
		cols = append(cols, c)
	}
	for s, spec := range g.specs {
		name := spec.Name
		if name == "" && s < len(outNames) {
			name = outNames[s]
		}
		cols = append(cols, Col{Name: name, Type: coltypes.Int(), Data: coltypes.Of(data[g.nKeys+s])})
	}
	return MustRelation(cols)
}
