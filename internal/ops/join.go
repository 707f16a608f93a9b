package ops

import (
	"fmt"

	"rapid/internal/bits"
	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/plan"
	"rapid/internal/primitives"
	"rapid/internal/qef"
)

// JoinSpec configures a hash join. The build side should be the smaller
// relation (the driving relation of §6.1).
type JoinSpec struct {
	Type      plan.JoinType
	BuildKeys []int // key column indices in the build relation (1 or 2)
	ProbeKeys []int // matching key columns in the probe relation
	// BuildPayload / ProbePayload are the columns each side contributes to
	// the output, in output order (probe payload first).
	BuildPayload []int
	ProbePayload []int

	Scheme PartScheme // partitioning scheme from the optimizer

	// EstPartRows is the optimizer's estimate of build rows per partition
	// (the DMEM capacity). Underestimates trigger the §6.4 resilience.
	EstPartRows int
	// SkewFactor: partitions larger than SkewFactor*EstPartRows are "large
	// skew" and get re-partitioned dynamically; below that the hash table
	// overflows gracefully ("small skew").
	SkewFactor float64
}

func (s *JoinSpec) normalize(buildRows int) {
	if s.SkewFactor <= 1 {
		s.SkewFactor = 4
	}
	if s.EstPartRows <= 0 {
		f := s.Scheme.Fanout()
		if f < 1 {
			f = 1
		}
		s.EstPartRows = buildRows/f + 1
	}
}

// HashJoin executes the partitioned hash join of §6: partition both inputs
// by key hash, then per partition pair run the compact DMEM join kernel on
// one dpCore, all pairs in parallel.
func HashJoin(ctx *qef.Context, build, probe *Relation, spec JoinSpec) (*Relation, error) {
	b, err := NewJoinBuild(build, spec)
	if err != nil {
		return nil, err
	}
	return b.Probe(ctx, probe)
}

// JoinBuild is a hash join's build side, which may be partitioned before its
// probe side exists: a join filter (JoinFilter) is filled from the
// partitions' key hashes, and the probe side is then collected through it.
type JoinBuild struct {
	rel   *Relation
	spec  JoinSpec
	parts *PartitionedRel // nil until Partition
}

// NewJoinBuild prepares build for a join by spec.
func NewJoinBuild(build *Relation, spec JoinSpec) (*JoinBuild, error) {
	if len(spec.BuildKeys) != len(spec.ProbeKeys) || len(spec.BuildKeys) == 0 || len(spec.BuildKeys) > 2 {
		return nil, fmt.Errorf("ops: join needs 1 or 2 key pairs, got %d/%d", len(spec.BuildKeys), len(spec.ProbeKeys))
	}
	spec.normalize(build.Rows())
	return &JoinBuild{rel: build, spec: spec}, nil
}

// Partition hash-partitions the build side by the join's scheme, once.
func (b *JoinBuild) Partition(ctx *qef.Context) error {
	if b.parts != nil {
		return nil
	}
	bp, err := PartitionByHash(ctx, b.rel.Chunks, b.spec.BuildKeys, b.spec.Scheme, qef.DefaultTileRows)
	b.parts = bp
	return err
}

// Release returns the build side's partitions, if any, to the slab.
func (b *JoinBuild) Release() {
	if b.parts != nil {
		b.parts.Release()
		b.parts = nil
	}
}

// Probe joins probe against the build side, partitioning the build side
// first unless Partition has. The partitions are released when it returns.
func (b *JoinBuild) Probe(ctx *qef.Context, probe *Relation) (*Relation, error) {
	// Both partitionings are dead once the pairs have been joined (the
	// deferred Releases run after RunParallel has returned): the sink holds
	// widened copies, never views of bp or pp.
	defer b.Release()
	spec := b.spec
	sink := newJoinSink(b.rel, probe, spec)
	matchOnly := spec.Type == plan.InnerJoin || spec.Type == plan.SemiJoin
	if probe.Rows() == 0 || (b.rel.Rows() == 0 && matchOnly) {
		// No join emits a row without a probe row, and an inner or semi
		// join none without a build row either: neither side is
		// partitioned for an output that is empty.
		sink.out.units(ctx, 0)
		return sink.relation(), nil
	}
	if err := b.Partition(ctx); err != nil {
		return nil, err
	}
	bp := b.parts
	pp, err := PartitionByHash(ctx, probe.Chunks, spec.ProbeKeys, spec.Scheme, qef.DefaultTileRows)
	if err != nil {
		return nil, err
	}
	defer pp.Release()
	if bp.NumPartitions() != pp.NumPartitions() {
		return nil, fmt.Errorf("ops: partition count mismatch %d vs %d", bp.NumPartitions(), pp.NumPartitions())
	}

	var units []qef.WorkUnit
	for p := 0; p < bp.NumPartitions(); p++ {
		buildRows := bp.Rows(p)
		probeRows := pp.Rows(p)
		if probeRows == 0 {
			continue
		}
		// Flow-join heavy-hitter handling (§6.4): a build partition far
		// above estimate whose keys are a single value cannot be split by
		// re-partitioning; spread the probe side across cores instead.
		if buildRows > int(spec.SkewFactor*float64(spec.EstPartRows)) &&
			singleKeyPartition(bp, p, spec.BuildKeys) && probeRows > 0 {
			const chunks = 8
			step := (probeRows + chunks - 1) / chunks
			for lo := 0; lo < probeRows; lo += step {
				hi := lo + step
				if hi > probeRows {
					hi = probeRows
				}
				unit := len(units)
				units = append(units, func(tc *qef.TaskCtx) error {
					return joinPair(tc, bp, pp, p, lo, hi, &spec, sink, unit)
				})
			}
			continue
		}
		unit := len(units)
		units = append(units, func(tc *qef.TaskCtx) error {
			return joinPair(tc, bp, pp, p, 0, pp.Rows(p), &spec, sink, unit)
		})
	}
	sink.out.units(ctx, len(units))
	if err := ctx.RunParallel(units); err != nil {
		return nil, err
	}
	return sink.relation(), nil
}

// singleKeyPartition samples the partition's keys for the heavy-hitter
// histogram: true when every sampled key equals the first.
func singleKeyPartition(pr *PartitionedRel, p int, keys []int) bool {
	n := pr.Rows(p)
	if n == 0 {
		return false
	}
	key := pr.Cols[p][keys[0]]
	first := key.Get(0)
	step := n / 64
	if step == 0 {
		step = 1
	}
	for i := 0; i < n; i += step {
		if key.Get(i) != first {
			return false
		}
	}
	return true
}

// joinPair joins build partition p against probe rows [plo, phi), emitting
// into the sink slot of work unit `unit`.
func joinPair(tc *qef.TaskCtx, bp, pp *PartitionedRel, p, plo, phi int, spec *JoinSpec, sink *joinSink, unit int) error {
	buildRows := bp.Rows(p)
	// Large skew (§6.4): dynamically insert another partitioning round for
	// this pair when it exceeds the skew threshold and has key diversity.
	if buildRows > int(spec.SkewFactor*float64(spec.EstPartRows)) &&
		!singleKeyPartition(bp, p, spec.BuildKeys) {
		sub := 4
		subShift := bp.Bits
		// The re-split lives and dies inside this unit.
		sbp, err := splitPartition(nil, tc.Ctx.Slab, [][]coltypes.Data{bp.Cols[p]}, bp.Hashes[p], []int{sub}, subShift)
		if err != nil {
			return err
		}
		defer sbp.Release()
		probeCols := tc.Pool.Headers(len(pp.Cols[p]))
		for c := range probeCols {
			probeCols[c] = pp.Cols[p][c].Slice(plo, phi)
		}
		spp, err := splitPartition(nil, tc.Ctx.Slab, [][]coltypes.Data{probeCols}, pp.Hashes[p][plo:phi], []int{sub}, subShift)
		if err != nil {
			return err
		}
		defer spp.Release()
		for sp := 0; sp < sub; sp++ {
			if err := joinPairData(tc, sbp.Cols[sp], sbp.Hashes[sp], spp.Cols[sp], spp.Hashes[sp], spec, sink, unit); err != nil {
				return err
			}
		}
		return nil
	}
	probeCols := tc.Pool.Headers(len(pp.Cols[p]))
	for c := range probeCols {
		probeCols[c] = pp.Cols[p][c].Slice(plo, phi)
	}
	return joinPairData(tc, bp.Cols[p], bp.Hashes[p], probeCols, pp.Hashes[p][plo:phi], spec, sink, unit)
}

// joinPairData runs the build and probe kernels over one partition pair.
func joinPairData(tc *qef.TaskCtx, buildCols []coltypes.Data, bhv []uint32, probeCols []coltypes.Data, phv []uint32, spec *JoinSpec, sink *joinSink, unit int) error {
	nb, np := len(bhv), len(phv)
	if nb == 0 {
		// Anti and left-outer joins still emit probe rows: every probe row
		// is unmatched, so take the dense path (nil selection).
		if spec.Type == plan.AntiJoin || spec.Type == plan.LeftOuterJoin {
			if spec.Type == plan.AntiJoin {
				sink.emitProbeOnly(tc, unit, probeCols, nil, np)
			} else {
				sink.emitOuter(tc, unit, probeCols, nil, nil, np, nil)
			}
		}
		return nil
	}
	// Pool scope: everything taken below (widened keys, the hash table,
	// match bit-vectors, sink staging) dies with this partition pair. The
	// skew path runs several pairs per unit, so without this the takes
	// would accumulate across pairs.
	tc.Pool.Mark()
	defer tc.Pool.Release()
	nBuckets := primitives.BucketsFor(nb)
	buildKeys := primitives.WidenToI64(tc.Core, buildCols[spec.BuildKeys[0]], tc.Pool.I64(nb))
	var buildKeys2 []int64
	if len(spec.BuildKeys) == 2 {
		buildKeys2 = primitives.WidenToI64(tc.Core, buildCols[spec.BuildKeys[1]], tc.Pool.I64(nb))
	}
	probeKeys := primitives.WidenToI64(tc.Core, probeCols[spec.ProbeKeys[0]], tc.Pool.I64(np))
	var probeKeys2 []int64
	if len(spec.ProbeKeys) == 2 {
		probeKeys2 = primitives.WidenToI64(tc.Core, probeCols[spec.ProbeKeys[1]], tc.Pool.I64(np))
	}

	// DMEM capacity: the optimizer's estimate, clamped to what actually
	// fits the scratchpad. Rows beyond capacity overflow gracefully to
	// DRAM (small-skew resilience, §6.4).
	capacity := spec.EstPartRows
	if nb < capacity {
		capacity = nb
	}
	tc.DMEM.Mark()
	defer tc.DMEM.Release()
	budget := tc.DMEM.Free() - 2048 // leave room for key vectors/control
	for capacity > 16 && primitives.HTSizeBytes(capacity, nBuckets) > budget {
		capacity /= 2
	}
	if err := tc.DMEM.Alloc(primitives.HTSizeBytes(capacity, nBuckets)); err != nil {
		return err
	}
	var tableKeys2 []int64
	if buildKeys2 != nil {
		tableKeys2 = tc.Pool.I64(nb)
	}
	ht := primitives.NewCompactHT(capacity, nBuckets,
		tc.Pool.U32(nBuckets+1), tc.Pool.U32(nb), tc.Pool.I64(nb), tableKeys2)
	ht.Build(tc.Core, bhv, buildKeys, buildKeys2, qef.DefaultTileRows)

	switch spec.Type {
	case plan.SemiJoin, plan.AntiJoin:
		// ProbeExists bills no DRAM latency for rows beyond the capacity
		// (Probe does); the counter shows how much goes unbilled.
		if ov := nb - capacity; ov > 0 {
			tc.Ctx.CountMetric("ops_exists_overflow_rows_total", int64(ov))
		}
		exists := tc.Pool.BV(np)
		ht.ProbeExists(tc.Core, phv, probeKeys, probeKeys2, qef.DefaultTileRows, exists)
		if spec.Type == plan.AntiJoin {
			neg := tc.Pool.BV(np)
			neg.Not(exists)
			exists = neg
		}
		sink.emitProbeOnly(tc, unit, probeCols, exists, np)
	case plan.InnerJoin, plan.LeftOuterJoin:
		// The match list is leased at one match per probe row; a many-to-many
		// pair outgrows it onto the heap by append, and the lease goes back.
		slab := tc.Ctx.Slab
		matchWords := slab.Lease(np)
		defer slab.Return(matchWords)
		matches := ht.Probe(tc.Core, phv, probeKeys, probeKeys2, qef.DefaultTileRows,
			coltypes.WordsAs[primitives.Match](matchWords, np)[:0])
		if spec.Type == plan.InnerJoin {
			sink.emitMatches(tc, unit, buildCols, probeCols, matches)
			break
		}
		matched := tc.Pool.BV(np)
		for _, m := range matches {
			matched.Set(int(m.ProbeRow))
		}
		unmatched := tc.Pool.BV(np)
		unmatched.Not(matched)
		sink.emitOuter(tc, unit, probeCols, buildCols, unmatched, np, matches)
	}
	return nil
}

// joinSink accumulates join output rows: one slot per join work unit, whose
// chunks are the output relation in unit order (see unitSlots).
type joinSink struct {
	spec  *JoinSpec
	build *Relation
	probe *Relation
	out   unitSlots
}

// newJoinSink builds the sink; the caller sizes out.units once they are known.
func newJoinSink(build, probe *Relation, spec JoinSpec) *joinSink {
	return &joinSink{
		spec:  &spec,
		build: build,
		probe: probe,
		out:   unitSlots{ncols: len(spec.ProbePayload) + len(spec.BuildPayload)},
	}
}

// emitMatches gathers payload columns for matched pairs, charging the DMEM
// gather cost per column.
func (s *joinSink) emitMatches(tc *qef.TaskCtx, unit int, buildCols, probeCols []coltypes.Data, matches []primitives.Match) {
	if len(matches) == 0 {
		return
	}
	// Every column of the un-zeroed chunk is gathered in full below.
	rows := s.out.chunk(tc, unit, len(matches))
	probeRIDs := tc.Pool.U32(len(matches))
	buildRIDs := tc.Pool.U32(len(matches))
	for i, m := range matches {
		probeRIDs[i] = m.ProbeRow
		buildRIDs[i] = m.BuildRow
	}
	ci := 0
	for _, pc := range s.spec.ProbePayload {
		widenGather(rows[ci], probeCols[pc], probeRIDs)
		ci++
	}
	for _, bc := range s.spec.BuildPayload {
		widenGather(rows[ci], buildCols[bc], buildRIDs)
		ci++
	}
	if c := tc.Core; c != nil {
		c.Charge(dpu.Cycles(2 * len(matches) * ci))
	}
}

// emitProbeOnly emits the probe payload of rows set in sel (semi/anti) with
// a zero build payload. A nil sel means every one of the `total` probe rows
// qualifies — the dense path widens sequentially without materializing a
// selection at all.
func (s *joinSink) emitProbeOnly(tc *qef.TaskCtx, unit int, probeCols []coltypes.Data, sel *bits.Vector, total int) {
	n := total
	var rids []uint32
	if sel != nil {
		n = sel.Count()
		rids = sel.ToRIDs(tc.Pool.U32(n)[:0])
	}
	if n == 0 {
		return
	}
	rows := s.out.chunk(tc, unit, n)
	for ci, pc := range s.spec.ProbePayload {
		if sel == nil {
			primitives.WidenToI64(nil, probeCols[pc], rows[ci])
		} else {
			widenGather(rows[ci], probeCols[pc], rids)
		}
	}
	// The zero build payload of an unmatched left-outer row is written, not
	// assumed: the chunk is leased un-zeroed.
	for _, col := range rows[len(s.spec.ProbePayload):] {
		clear(col)
	}
	if c := tc.Core; c != nil {
		c.Charge(dpu.Cycles(2 * n))
	}
}

// emitOuter emits matched pairs plus unmatched probe rows with zero build
// payload. A nil unmatched vector means all `total` probe rows are
// unmatched (the empty-build case).
func (s *joinSink) emitOuter(tc *qef.TaskCtx, unit int, probeCols, buildCols []coltypes.Data, unmatched *bits.Vector, total int, matches []primitives.Match) {
	s.emitMatches(tc, unit, buildCols, probeCols, matches)
	s.emitProbeOnly(tc, unit, probeCols, unmatched, total)
}

// relation returns the join output, described by the payload sources.
func (s *joinSink) relation() *Relation {
	cols := make([]Col, 0, s.out.ncols)
	for _, pc := range s.spec.ProbePayload {
		cols = append(cols, s.probe.Cols[pc])
	}
	for _, bc := range s.spec.BuildPayload {
		cols = append(cols, s.build.Cols[bc])
	}
	return MustRelation(cols, s.out.chunks()...)
}
