package ops

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"rapid/internal/coltypes"
	"rapid/internal/mem"
	"rapid/internal/plan"
	"rapid/internal/primitives"
	"rapid/internal/qef"
)

// withProcs runs fn with GOMAXPROCS raised to at least n, so a ModeX86
// context gets several workers even on a one-core box.
func withProcs(t testing.TB, n int, fn func()) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		defer runtime.GOMAXPROCS(prev)
	}
	fn()
}

// partitionValues widens a partitioned relation to plain values, so that
// DeepEqual compares contents and not the Data views' backing pointers (an
// empty partition compares as empty, whatever its header).
func partitionValues(p *PartitionedRel) any {
	cols := make([][][]int64, len(p.Cols))
	hashes := make([][]uint32, len(p.Hashes))
	for i, part := range p.Cols {
		for _, c := range part {
			cols[i] = append(cols[i], coltypes.ToInt64s(c))
		}
		hashes[i] = append([]uint32{}, p.Hashes[i]...)
	}
	return []any{cols, hashes, p.Bits}
}

// refSplitRound is one round of the round-by-round reference split: a stable
// counting split of flat columns by hash bits [shift, shift+log2 fanout).
func refSplitRound(cols []coltypes.Data, hv []uint32, fanout int, shift uint) ([][]coltypes.Data, [][]uint32) {
	outCols, outHv := make([][]coltypes.Data, fanout), make([][]uint32, fanout)
	for p := range outCols {
		var rids []uint32
		for i, h := range hv {
			if int(h>>shift)&(fanout-1) == p {
				rids = append(rids, uint32(i))
				outHv[p] = append(outHv[p], h)
			}
		}
		for _, c := range cols {
			d := c.NewSame(len(rids))
			coltypes.Gather(d, c, rids)
			outCols[p] = append(outCols[p], d)
		}
	}
	return outCols, outHv
}

// refPartition is the round-by-round reference of PartitionByHash: the hash
// pass, round 0 over the concatenated chunks, then every software round over
// every partition, child c of partition p in slot p*fanout+c, each round's
// DMEM admission and dpCore billing replayed over its input partitions in
// slot order.
func refPartition(ctx *qef.Context, chunks [][]coltypes.Data, keyCols []int, scheme PartScheme, tileRows int) (*PartitionedRel, error) {
	flat := MustRelation(make([]Col, len(chunks[0])), chunks...).Flatten().Chunks[0]
	hv := make([]uint32, flat[0].Len())
	for i, k := range keyCols {
		primitives.HashColumn(nil, flat[k], hv, i == 0)
	}
	primitives.HashFinalize(nil, hv)
	if ctx.Mode == qef.ModeDPU {
		ctx.AccountSpanTransfer(ctx.DMS.HashTiming(len(hv), flat, keyCols))
	}
	cols, hashes := refSplitRound(flat, hv, scheme.Rounds[0], 0)
	shift := roundBits(scheme.Rounds[0])
	for _, fanout := range scheme.Rounds[1:] {
		in := &PartitionedRel{Cols: cols, Hashes: hashes}
		if err := swPartitionRound(ctx, in, nil, flat, nil, fanout, shift, tileRows); err != nil {
			return nil, err
		}
		var nextCols [][]coltypes.Data
		var nextHv [][]uint32
		for p := range cols {
			c, h := refSplitRound(cols[p], hashes[p], fanout, shift)
			nextCols, nextHv = append(nextCols, c...), append(nextHv, h...)
		}
		cols, hashes, shift = nextCols, nextHv, shift+roundBits(fanout)
	}
	return &PartitionedRel{Cols: cols, Hashes: hashes, Bits: shift}, nil
}

// TestOnePassSplitEqualsRoundByRound: the one stable split PartitionByHash
// makes for all rounds lays out columns, hashes and bits exactly as the
// round-by-round split did, and the ModeDPU replay of every software round
// bills the same cycles, bytes and seconds — for random schemes (1–3 rounds,
// fan-outs 1–64, the hardware round at most 32), W1–W8 columns, chunked
// inputs and row counts at the piece boundaries of the parallel passes: one
// piece short of full, exactly one and two full pieces, a last piece of 1 row.
func TestOnePassSplitEqualsRoundByRound(t *testing.T) {
	withProcs(t, 4, func() {
		sizes := []int{1, 63, partChunkRows - 1, partChunkRows, partChunkRows + 1, 2*partChunkRows - 1, 2 * partChunkRows, 2*partChunkRows + 1}
		widths := []coltypes.Width{coltypes.W1, coltypes.W2, coltypes.W4, coltypes.W8}
		check := func(seed int64, n int, scheme PartScheme) bool {
			rng := rand.New(rand.NewSource(seed))
			cols := make([]coltypes.Data, 1+rng.Intn(4))
			for c := range cols {
				cols[c] = coltypes.New(widths[rng.Intn(len(widths))], n)
				for i := 0; i < n; i++ {
					cols[c].Set(i, rng.Int63n(1<<20)-1<<19)
				}
			}
			var chunks [][]coltypes.Data
			for lo := 0; lo < n; {
				hi := min(n, lo+1+rng.Intn(n/3+1))
				chunk := make([]coltypes.Data, len(cols))
				for c, d := range cols {
					chunk[c] = d.Slice(lo, hi)
				}
				chunks, lo = append(chunks, chunk), hi
			}
			for _, mode := range []qef.Mode{qef.ModeX86, qef.ModeDPU} {
				got, want := qef.NewContext(mode), qef.NewContext(mode)
				one, err := PartitionByHash(got, chunks, []int{0}, scheme, 256)
				ref, rerr := refPartition(want, chunks, []int{0}, scheme, 256)
				if (err == nil) != (rerr == nil) {
					t.Errorf("seed %d %s %s: error %v, reference %v", seed, mode, scheme, err, rerr)
					return false
				}
				if err != nil {
					continue
				}
				if !reflect.DeepEqual(partitionValues(one), partitionValues(ref)) {
					t.Errorf("seed %d %s: n=%d %d chunks %s: one-pass and round-by-round split differ", seed, mode, n, len(chunks), scheme)
					return false
				}
				gu, wu := got.Usage(), want.Usage()
				if gu.Cycles() != wu.Cycles() || gu.Read != wu.Read || gu.Write != wu.Write || gu.SimElapsed() != wu.SimElapsed() {
					t.Errorf("seed %d %s %s: bill %d cy %+v %+v %v s, reference %d cy %+v %+v %v s", seed, mode, scheme,
						gu.Cycles(), gu.Read, gu.Write, gu.SimElapsed(), wu.Cycles(), wu.Read, wu.Write, wu.SimElapsed())
					return false
				}
			}
			return true
		}
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			for _, n := range sizes {
				scheme := PartScheme{Rounds: []int{1 << rng.Intn(6)}}
				for r := rng.Intn(3); r > 0; r-- {
					scheme.Rounds = append(scheme.Rounds, 1<<rng.Intn(7))
				}
				if !check(rng.Int63(), n, scheme) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 6}); err != nil {
			t.Fatal(err)
		}
		// The widest scheme the planner picks, over more pieces than workers:
		// the split cuts fewer, larger pieces to bound its cursor.
		if !check(1, 5*partChunkRows+1, PartScheme{Rounds: []int{32, 64, 64}}) {
			t.Fatal("capped split differs from the round-by-round split")
		}
	})
}

// TestUnitSlotsListChunksInUnitOrder: units finishing in reverse order — and
// one emitting twice — still list their chunks in unit order, chunk order
// within, each chunk's columns intact.
func TestUnitSlotsListChunksInUnitOrder(t *testing.T) {
	u := unitSlots{ncols: 2}
	ctx := qef.NewContext(qef.ModeX86)
	u.units(ctx, 4)
	err := ctx.RunSerial(func(tc *qef.TaskCtx) error {
		emit := func(unit int, vals ...int64) {
			cols := u.chunk(tc, unit, len(vals))
			for i, v := range vals {
				cols[0][i], cols[1][i] = v, -v
			}
		}
		emit(3, 30, 31)
		emit(2, 20)
		emit(0, 1, 2)
		emit(2, 21, 22) // unit 1 emits nothing
		emit(0, 3)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var got [][]int64
	for _, ch := range u.chunks() {
		got = append(got, ch[0].I64())
		for i, v := range ch[1].I64() {
			if v != -ch[0].I64()[i] {
				t.Fatalf("chunk %v torn: %v", ch[0].I64(), ch[1].I64())
			}
		}
	}
	if want := [][]int64{{1, 2}, {3}, {20}, {21, 22}, {30, 31}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("chunks %v, want %v", got, want)
	}
	if empty := (&unitSlots{ncols: 1}).chunks(); len(empty) != 0 {
		t.Fatalf("no units: %v", empty)
	}
}

// TestCollectSinkEmitsRunsInSeqOrder: core 1 runs all of its units before
// core 0 starts, with tiles of one unit split around other work; the
// relation is in unit (Seq) order all the same.
func TestCollectSinkEmitsRunsInSeqOrder(t *testing.T) {
	ctx := qef.NewContext(qef.ModeDPU) // 32 virtual cores
	sink := NewCollectSink([]Col{{Name: "v", Type: coltypes.Int()}})
	tcs := []*qef.TaskCtx{ctx.TaskCtx(0), ctx.TaskCtx(1)}
	for _, tc := range tcs {
		tc.Pool = mem.NewTilePool()
	}
	feed := func(core, seq int, vals ...int64) {
		tc := tcs[core]
		if err := sink.Open(tc); err != nil {
			t.Fatal(err)
		}
		tc.Seq = seq
		if err := sink.Produce(tc, &qef.Tile{Cols: []coltypes.Data{coltypes.Of(vals)}, N: len(vals)}); err != nil {
			t.Fatal(err)
		}
	}
	feed(1, 1, 10, 11)
	feed(1, 3, 30)
	feed(1, 3, 31, 32) // second tile of unit 3
	feed(0, 0, 1, 2)
	feed(0, 2, 20)
	rel := sink.Relation()
	got := rel.Flatten().Col(0).I64()
	if want := []int64{1, 2, 10, 11, 20, 30, 31, 32}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	if len(rel.Chunks) != 4 { // one run, one chunk, per unit
		t.Fatalf("%d chunks, want 4", len(rel.Chunks))
	}
}

// TestCollectIsScanOrderAtAnyWorkerCount drives a real multi-worker scan
// through the sink — enough rows to roll the per-core blocks over several
// times — and expects the input back in input order.
func TestCollectIsScanOrderAtAnyWorkerCount(t *testing.T) {
	const n = 5*collectBlockMaxRows + 321
	rel := intRel([]string{"id"}, seq(n, func(i int) int64 { return int64(i) }))
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		ctx := qef.NewContext(qef.ModeX86)
		sink := NewCollectSink([]Col{{Name: "id", Type: coltypes.Int()}})
		err := RelationScan(ctx, rel, 256, func() qef.Operator { return sink })
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		got := sink.Relation().Flatten().Col(0).I64()
		if len(got) != n {
			t.Fatalf("procs %d: %d rows, want %d", procs, len(got), n)
		}
		for i, v := range got {
			if v != int64(i) {
				t.Fatalf("procs %d: row %d = %d", procs, i, v)
			}
		}
	}
}

// lineitemLike builds an (orderkey, payload, rowid) relation of n rows whose
// keys reference `orders` distinct build keys.
func lineitemLike(n, orders int) *Relation {
	rng := rand.New(rand.NewSource(2018))
	return intRel([]string{"l_orderkey", "l_extendedprice", "l_id"},
		seq(n, func(int) int64 { return int64(rng.Intn(orders)) }),
		seq(n, func(int) int64 { return rng.Int63n(1_000_000) }),
		seq(n, func(i int) int64 { return int64(i) }))
}

// TestPartitionByHashAllocsAreRowIndependent is the allocation gate of the
// single-copy path on the host lane: what PartitionByHash allocates is a
// function of columns, fan-out and the piece count of its parallel passes —
// not of the tile size, and not of the row count beyond one unit per piece —
// at the join_heavy scheme, a wider one and the widest three-round one.
func TestPartitionByHashAllocsAreRowIndependent(t *testing.T) {
	// Exactly two workers: a batch allocates per core it starts (task context,
	// DMEM, goroutine), and the budget below counts two.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, scheme := range []PartScheme{{Rounds: []int{8, 16}}, {Rounds: []int{16, 32}}, {Rounds: []int{32, 64, 64}}} {
		ctx := qef.NewContext(qef.ModeX86)
		measure := func(n, tileRows int) float64 {
			cols := lineitemLike(n, n/4+1).Chunks
			return testing.AllocsPerRun(5, func() {
				if _, err := PartitionByHash(ctx, cols, []int{0}, scheme, tileRows); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := measure(50_000, 256), measure(300_000, 256)
		// The runtime's own bookkeeping (goroutine start, parking) moves the
		// count by an object or two between runs; a tile-loop dependence
		// would move it by thousands.
		near := func(a, b float64) bool { return a-b <= 8 && b-a <= 8 }
		if a, b := measure(300_000, 64), measure(300_000, 1024); !near(a, large) || !near(b, large) {
			t.Errorf("%s: allocs depend on the tile size: %v at 64, %v at 256, %v at 1024 rows/tile", scheme, a, large, b)
		}
		// On the heap (a context with no slab, where every lease is one object
		// — the upper bound). The one split is 9 headers (cursor, bounds,
		// digits, the PartitionedRel with its Cols, Hashes and lease list, the
		// column views, the carved headers) and 6 buffers (hash vector,
		// position vector, output hashes, 3 columns). Each software round's
		// replay adds one unit per input partition and the input sizes, and
		// each batch — the three chunked passes and one per software round —
		// its error slots and two cores' task contexts: 18 a batch covers all
		// but the units. A piece costs one closure in each chunked pass: the
		// hash pass, and the split's histogram and scatter.
		const perSplit, perBatch = 9 + 6, 18
		batches, units := 3+len(scheme.Rounds)-1, 0
		for r := 1; r < len(scheme.Rounds); r++ {
			units += partitionsOf(scheme.Rounds[:r])
		}
		pieces := func(n, fanout int) float64 { rows := pieceRows(ctx, n, fanout); return float64((n + rows - 1) / rows) }
		perRows := func(n int) float64 { return pieces(n, 1) + 2*pieces(n, scheme.Fanout()) }
		if budget := float64(perSplit+perBatch*batches+units) + perRows(300_000); large > budget {
			t.Errorf("%s: 300k rows: %v allocs, budget %v", scheme, large, budget)
		}
		if grow := large - small; grow > 8+perRows(300_000)-perRows(50_000) {
			t.Errorf("%s: allocs grow with rows beyond the piece units: %v at 50k rows, %v at 300k", scheme, small, large)
		}
		t.Logf("%s: %v allocs at 50k rows, %v at 300k", scheme, small, large)
	}
}

var benchSink int

// BenchmarkPartitionByHash: the 8x16 and 16x32 schemes of a SF 0.05
// lineitem-sized input (300 k rows × 3 columns) on the host lane, leasing
// from a slab as a scheduled query does.
func BenchmarkPartitionByHash(b *testing.B) {
	cols := lineitemLike(300_000, 75_000).Chunks
	for _, scheme := range []PartScheme{{Rounds: []int{8, 16}}, {Rounds: []int{16, 32}}} {
		b.Run(scheme.String(), func(b *testing.B) {
			ctx := qef.NewContext(qef.ModeX86)
			ctx.Slab = mem.NewSlab(64<<20, nil)
			b.ReportAllocs()
			b.SetBytes(300_000 * 3 * 8)
			for i := 0; i < b.N; i++ {
				parts, err := PartitionByHash(ctx, cols, []int{0}, scheme, qef.DefaultTileRows)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += parts.NumPartitions()
				parts.Release()
			}
		})
	}
}

// BenchmarkHashJoinLineitemOrders: orders (75 k rows, build) ⋈ lineitem
// (300 k rows, probe) on the key, both payloads materialised — the shape of
// the join_heavy statements.
func BenchmarkHashJoinLineitemOrders(b *testing.B) {
	const orders = 75_000
	build := intRel([]string{"o_orderkey", "o_totalprice"},
		seq(orders, func(i int) int64 { return int64(i) }),
		seq(orders, func(i int) int64 { return int64(i) * 7 }))
	probe := lineitemLike(300_000, orders)
	ctx := qef.NewContext(qef.ModeX86)
	ctx.Slab = mem.NewSlab(64<<20, nil)
	spec := JoinSpec{
		Type: plan.InnerJoin, BuildKeys: []int{0}, ProbeKeys: []int{0},
		BuildPayload: []int{0, 1}, ProbePayload: []int{1, 2},
		Scheme: PartScheme{Rounds: []int{8, 16}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := HashJoin(ctx, build, probe, spec)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += out.Rows()
		ctx.Release()
	}
}

// BenchmarkGroupByPartitioned: lineitem (300 k rows) grouped by its 75 k
// order keys with a SUM and a COUNT(*) — the high-NDV group-by of Q18.
func BenchmarkGroupByPartitioned(b *testing.B) {
	const groups = 75_000
	rel := lineitemLike(300_000, groups)
	ctx := qef.NewContext(qef.ModeX86)
	ctx.Slab = mem.NewSlab(64<<20, nil)
	specs := []AggSpec{{Kind: AggSum, Arg: 1}, {Kind: AggCountStar}}
	scheme := PartScheme{Rounds: []int{8, 16}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := GroupByPartitioned(ctx, rel, []int{0}, specs, colProg(2), scheme, 2*groups/scheme.Fanout()+64)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += out.Rows()
		ctx.Release()
	}
}
