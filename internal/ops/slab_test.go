package ops

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"rapid/internal/mem"
	"rapid/internal/plan"
	"rapid/internal/qef"
)

// dirtySlab returns a slab whose every retained buffer is full of garbage, in
// the sizes a join over a few hundred thousand rows leases: what a query
// finds when another ran before it.
func dirtySlab(t testing.TB) *mem.Slab {
	t.Helper()
	s := mem.NewSlab(256<<20, nil)
	var out [][]int64
	for words := 8; words <= 1<<20; words += words / 8 {
		for k := 0; k < 3; k++ {
			b := s.Lease(words)
			for i := range b {
				b[i] = -0x0BAD_0BAD_0BAD
			}
			out = append(out, b)
		}
	}
	for _, b := range out {
		s.Return(b)
	}
	return s
}

// TestLeftOuterZeroPayloadOnDirtySlab: the zero build payload of an unmatched
// LEFT JOIN row is the operator's to write. Staging used to come zeroed from
// make and emitProbeOnly filled in the probe columns only; on recycled memory
// that returned whatever the buffer held before (qgen seed 4000013).
func TestLeftOuterZeroPayloadOnDirtySlab(t *testing.T) {
	const probeRows, buildRows = 150_000, 20_000 // probe keys 0..149999, build keys 0..19999: 130 k unmatched
	build := intRel([]string{"bk", "bv"},
		seq(buildRows, func(i int) int64 { return int64(i) }),
		seq(buildRows, func(i int) int64 { return int64(i) + 7 }))
	probe := intRel([]string{"pk", "pv"},
		seq(probeRows, func(i int) int64 { return int64(i) }),
		seq(probeRows, func(i int) int64 { return int64(i) * 3 }))
	spec := JoinSpec{
		Type: plan.LeftOuterJoin, BuildKeys: []int{0}, ProbeKeys: []int{0},
		BuildPayload: []int{0, 1}, ProbePayload: []int{0, 1},
		Scheme: PartScheme{Rounds: []int{8, 4}},
	}
	bothModes(t, func(t *testing.T, ctx *qef.Context) {
		ctx.Slab = dirtySlab(t)
		for round := 0; round < 2; round++ { // the second round leases what the first returned
			out, err := HashJoin(ctx, build, probe, spec)
			if err != nil {
				t.Fatal(err)
			}
			if out.Rows() != probeRows {
				t.Fatalf("%d rows, want %d", out.Rows(), probeRows)
			}
			pk, pv := out.Flat().Col(0).I64(), out.Flat().Col(1).I64()
			bk, bv := out.Flat().Col(2).I64(), out.Flat().Col(3).I64()
			unmatched := 0
			for i, k := range pk {
				wantK, wantV := k, k+7
				if k >= buildRows {
					wantK, wantV = 0, 0
					unmatched++
				}
				if pv[i] != 3*k || bk[i] != wantK || bv[i] != wantV {
					t.Fatalf("round %d row %d: (%d, %d | %d, %d), want (%d, %d | %d, %d)",
						round, i, k, pv[i], bk[i], bv[i], k, 3*k, wantK, wantV)
				}
			}
			if unmatched != probeRows-buildRows {
				t.Fatalf("%d unmatched rows, want %d", unmatched, probeRows-buildRows)
			}
		}
	})
}

// TestOperatorsAgreeOnDirtySlab: every operator that leases — all four join
// types, the partitioned group-by with its runtime re-split, the set
// operations and a multi-block CollectSink — returns on a slab full of
// garbage exactly what it returns on the zeroed heap.
func TestOperatorsAgreeOnDirtySlab(t *testing.T) {
	const n = 40_000
	build := intRel([]string{"bk", "bv"},
		seq(n/4, func(i int) int64 { return int64(i * 2) }),
		seq(n/4, func(i int) int64 { return int64(i) }))
	probe := lineitemLike(n, n/2)
	run := func(ctx *qef.Context) []*Relation {
		var out []*Relation
		keep := func(rel *Relation, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, rel)
		}
		for _, jt := range []plan.JoinType{plan.InnerJoin, plan.SemiJoin, plan.AntiJoin, plan.LeftOuterJoin} {
			spec := JoinSpec{
				Type: jt, BuildKeys: []int{0}, ProbeKeys: []int{0}, ProbePayload: []int{0, 2},
				Scheme: PartScheme{Rounds: []int{4, 4}},
				// An estimate far too low: the skew path re-splits inside the unit.
				EstPartRows: 16,
			}
			if jt == plan.InnerJoin || jt == plan.LeftOuterJoin {
				spec.BuildPayload = []int{1}
			}
			keep(HashJoin(ctx, build, probe, spec))
		}
		keep(GroupByPartitioned(ctx, probe, []int{0},
			[]AggSpec{{Kind: AggSum, Arg: 1}, {Kind: AggCountStar}}, colProg(2),
			PartScheme{Rounds: []int{4}}, 64)) // 64 groups per table: regroupSplit runs
		keys := func(r *Relation) *Relation { return r.Project([]int{0}) }
		for _, kind := range []plan.SetOpKind{plan.Union, plan.Intersect, plan.Minus} {
			keep(SetOp(ctx, keys(probe), keys(build), kind))
		}
		sink := NewCollectSink(probe.Cols)
		if err := RelationScan(ctx, probe, 256, func() qef.Operator { return sink }); err != nil {
			t.Fatal(err)
		}
		return append(out, sink.Relation())
	}
	for _, mode := range []qef.Mode{qef.ModeX86, qef.ModeDPU} {
		want := run(qef.NewContext(mode))
		ctx := qef.NewContext(mode)
		ctx.Slab = dirtySlab(t)
		for round := 0; round < 2; round++ {
			for i, got := range run(ctx) {
				if got.Rows() != want[i].Rows() || got.NumCols() != want[i].NumCols() {
					t.Fatalf("%s round %d result %d: %d x %d, want %d x %d", mode, round, i,
						got.Rows(), got.NumCols(), want[i].Rows(), want[i].NumCols())
				}
				for c := range got.Cols {
					g, w := got.Flat().Col(c), want[i].Flat().Col(c)
					for r := 0; r < g.Len(); r++ {
						if g.Get(r) != w.Get(r) {
							t.Fatalf("%s round %d result %d column %d row %d: %d, want %d",
								mode, round, i, c, r, g.Get(r), w.Get(r))
						}
					}
				}
			}
		}
	}
}

// TestHashJoinAllocsPerPartition: what a warm join allocates per extra
// partition pair is its share of the partitioning and the work unit — not the
// hash table, which is laid out in task scratch, and not its output chunks,
// which are leased and go back when the query releases its context.
func TestHashJoinAllocsPerPartition(t *testing.T) {
	// Exactly two workers, as in TestPartitionByHashAllocsAreRowIndependent.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const orders = 25_000
	build := intRel([]string{"o_orderkey", "o_totalprice"},
		seq(orders, func(i int) int64 { return int64(i) }),
		seq(orders, func(i int) int64 { return int64(i) * 7 }))
	probe := lineitemLike(100_000, orders)
	measure := func(scheme PartScheme) float64 {
		ctx := qef.NewContext(qef.ModeX86)
		ctx.Slab = mem.NewSlab(64<<20, nil)
		spec := JoinSpec{
			Type: plan.InnerJoin, BuildKeys: []int{0}, ProbeKeys: []int{0},
			BuildPayload: []int{0, 1}, ProbePayload: []int{1, 2},
			Scheme: scheme,
		}
		join := func() {
			if _, err := HashJoin(ctx, build, probe, spec); err != nil {
				t.Fatal(err)
			}
			ctx.Release()
		}
		join() // warm: pools grow and the slab fills here
		return testing.AllocsPerRun(5, join)
	}
	few, many := measure(PartScheme{Rounds: []int{8, 8}}), measure(PartScheme{Rounds: []int{8, 32}})
	const extra = 8*32 - 8*8
	if per := (many - few) / extra; per > 4 {
		t.Errorf("HashJoin allocates %v objects at 8x8, %v at 8x32: %.1f per extra partition, budget 4", few, many, per)
	}
	t.Logf("HashJoin %v objects at 8x8, %v at 8x32", few, many)
}

// TestGroupByPartitionedAllocsPerPartition: what a warm partitioned group-by
// allocates per extra partition is its share of the partitioning and the work
// unit — not the group table and accumulators, which are laid out in task
// scratch, and not its output chunks, which the query releases.
func TestGroupByPartitionedAllocsPerPartition(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // as TestHashJoinAllocsPerPartition
	const groups = 25_000
	rel := lineitemLike(100_000, groups)
	specs := []AggSpec{{Kind: AggSum, Arg: 1}, {Kind: AggMin, Arg: 2}, {Kind: AggCountStar}}
	measure := func(scheme PartScheme) float64 {
		ctx := qef.NewContext(qef.ModeX86)
		ctx.Slab = mem.NewSlab(64<<20, nil)
		group := func() {
			out, err := GroupByPartitioned(ctx, rel, []int{0}, specs, colProg(3), scheme, 2*groups/scheme.Fanout()+64)
			if err != nil {
				t.Fatal(err)
			}
			benchSink += out.Rows()
			ctx.Release()
		}
		group() // warm: pools grow and the slab fills here
		return testing.AllocsPerRun(5, group)
	}
	few, many := measure(PartScheme{Rounds: []int{8, 8}}), measure(PartScheme{Rounds: []int{8, 32}})
	const extra = 8*32 - 8*8
	if per := (many - few) / extra; per > 4 {
		t.Errorf("GroupByPartitioned allocates %v objects at 8x8, %v at 8x32: %.1f per extra partition, budget 4", few, many, per)
	}
	t.Logf("GroupByPartitioned %v objects at 8x8, %v at 8x32", few, many)
}

// TestOperatorBytesAreRowIndependent is the bytes gate beside the object-count
// gates above: with a warm slab, what PartitionByHash and HashJoin allocate
// does not grow with the row count — partition buffers, hash vectors, hash
// tables, match lists and the output chunks, which the query returns when it
// releases its context, are recycled, not made, zeroed and collected.
//
// The budgets are sized for exactly two workers and run there. At any other
// worker count a split cuts more pieces as the rows grow, up to the workers,
// each with fanout 4-byte cursor counters; the run at the ambient count
// allows that growth and no more.
func TestOperatorBytesAreRowIndependent(t *testing.T) {
	const small, large = 50_000, 300_000
	// Per partition its column and hash headers, slot, bound and replay
	// unit, and a cursor row per piece — the pieces bounded by
	// splitCursorMax or the workers, not by the rows: at 8x16 tens of KB
	// against 8.4 MB of rows at 300 k. The three-round scheme is the
	// widest the planner picks.
	schemes := []PartScheme{{Rounds: []int{8, 16}}, {Rounds: []int{16, 32}}, {Rounds: []int{32, 64, 64}}}
	ambient := runtime.GOMAXPROCS(0)
	t.Run("procs=2", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		for _, s := range schemes {
			ps, pl := partitionBytes(t, small, s), partitionBytes(t, large, s)
			if budget := float64(256<<10 + 256*s.Fanout()); pl > budget || pl-ps > 64<<10 {
				t.Errorf("%s: PartitionByHash allocates %.0f B at %d rows, %.0f B at %d (budget %.0f): partition buffers are not recycled, or the cursor grows with the rows",
					s, ps, small, pl, large, budget)
			}
			t.Logf("%s: PartitionByHash %.0f / %.0f B", s, ps, pl)
		}
		// A join allocates headers and work units, as many at 300 k rows as at
		// 50 k; the compact hash tables are laid out in task scratch and its
		// 9.6 MB of output at 300 k rows is leased.
		js, jl := joinBytes(t, small), joinBytes(t, large)
		if jl > 512<<10 || jl-js > 64<<10 {
			t.Errorf("HashJoin allocates %.0f B at %d rows, %.0f B at %d: output chunks or staging are not recycled", js, small, jl, large)
		}
		t.Logf("HashJoin %.0f / %.0f B", js, jl)
	})
	if ambient == 2 {
		return // the run above is the ambient one
	}
	t.Run(fmt.Sprintf("procs=%d", ambient), func(t *testing.T) {
		ctx := qef.NewContext(qef.ModeX86)
		pieces := func(n, fanout int) int { rows := pieceRows(ctx, n, fanout); return (n + rows - 1) / rows }
		for _, s := range schemes {
			ps, pl := partitionBytes(t, small, s), partitionBytes(t, large, s)
			cursor := (pieces(large, s.Fanout()) - pieces(small, s.Fanout())) * s.Fanout() * 4
			if allowed := float64(64<<10 + cursor); pl-ps > allowed {
				t.Errorf("%s: PartitionByHash allocates %.0f B at %d rows, %.0f B at %d: grows by more than 64 KiB + %d B of extra pieces' cursor",
					s, ps, small, pl, large, cursor)
			}
			t.Logf("%s: PartitionByHash %.0f / %.0f B", s, ps, pl)
		}
	})
}

// bytesPerRun is the median of several warm runs of fn, each its own
// TotalAlloc delta: a run that meets a GC (emptied sync.Pools regrow) or a
// goroutine stack growth is an outlier, not a trend.
func bytesPerRun(fn func()) float64 {
	fn() // warm: pools grow and the slab fills here
	fn()
	var runs [9]float64
	var before, after runtime.MemStats
	for i := range runs {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		runs[i] = float64(after.TotalAlloc - before.TotalAlloc)
	}
	slices.Sort(runs[:])
	return runs[len(runs)/2]
}

// partitionBytes is what a warm PartitionByHash of n lineitem-like rows
// allocates under s, with as many workers as GOMAXPROCS allows.
func partitionBytes(t *testing.T, n int, s PartScheme) float64 {
	cols := lineitemLike(n, n/4+1).Chunks
	ctx := qef.NewContext(qef.ModeX86)
	ctx.Slab = mem.NewSlab(64<<20, nil)
	return bytesPerRun(func() {
		parts, err := PartitionByHash(ctx, cols, []int{0}, s, qef.DefaultTileRows)
		if err != nil {
			t.Fatal(err)
		}
		parts.Release()
	})
}

// joinBytes is what a warm 8x16 HashJoin of n lineitem-like rows against
// n/4 orders allocates.
func joinBytes(t *testing.T, n int) float64 {
	orders := n / 4
	build := intRel([]string{"o_orderkey", "o_totalprice"},
		seq(orders, func(i int) int64 { return int64(i) }),
		seq(orders, func(i int) int64 { return int64(i) * 7 }))
	probe := lineitemLike(n, orders)
	ctx := qef.NewContext(qef.ModeX86)
	ctx.Slab = mem.NewSlab(64<<20, nil)
	spec := JoinSpec{
		Type: plan.InnerJoin, BuildKeys: []int{0}, ProbeKeys: []int{0},
		BuildPayload: []int{0, 1}, ProbePayload: []int{1, 2},
		Scheme: PartScheme{Rounds: []int{8, 16}},
	}
	return bytesPerRun(func() {
		if _, err := HashJoin(ctx, build, probe, spec); err != nil {
			t.Fatal(err)
		}
		ctx.Release()
	})
}
