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
// DeepEqual compares contents and not the Data views' backing pointers.
func partitionValues(p *PartitionedRel) any {
	cols := make([][][]int64, len(p.Cols))
	for i, part := range p.Cols {
		for _, c := range part {
			cols[i] = append(cols[i], coltypes.ToInt64s(c))
		}
	}
	return []any{cols, p.Hashes, p.Bits}
}

// TestSplitPartitionSerialEqualsChunkParallel: the chunk-parallel split of
// the ModeX86 top-level round is the same stable split as the serial one the
// work units use, for row counts straddling the chunk size and every
// power-of-two fan-out the hardware round allows.
func TestSplitPartitionSerialEqualsChunkParallel(t *testing.T) {
	withProcs(t, 4, func() {
		ctx := qef.NewContext(qef.ModeX86)
		if ctx.Workers() < 2 {
			t.Fatal("need a multi-worker context")
		}
		offsets := []int{-1, 0, 1, partChunkRows - 1, partChunkRows, partChunkRows + 1, 2*partChunkRows + 17}
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := partChunkRows + offsets[rng.Intn(len(offsets))]
			fanout := 1 << rng.Intn(6)
			shift := uint(rng.Intn(20))
			hv := make([]uint32, n)
			cols := []coltypes.Data{coltypes.New(coltypes.W1, n), coltypes.New(coltypes.W4, n), coltypes.New(coltypes.W8, n)}
			for i := range hv {
				hv[i] = rng.Uint32()
				cols[0].Set(i, rng.Int63())
				cols[1].Set(i, rng.Int63())
				cols[2].Set(i, int64(i))
			}
			serial, err := splitPartition(nil, nil, cols, hv, fanout, shift)
			if err != nil {
				t.Error(err)
				return false
			}
			parallel, err := splitPartition(ctx, nil, cols, hv, fanout, shift)
			if err != nil {
				t.Error(err)
				return false
			}
			if !reflect.DeepEqual(partitionValues(serial), partitionValues(parallel)) {
				t.Errorf("seed %d: n=%d fanout=%d shift=%d: serial and chunk-parallel split differ", seed, n, fanout, shift)
				return false
			}
			// Stable and complete: the row ids of a partition ascend, and
			// every row lands in the partition its hash bits name.
			rows := 0
			for p := range serial.Cols {
				ids := serial.Cols[p][2].I64()
				for i, id := range ids {
					if (i > 0 && id <= ids[i-1]) || int(hv[id]>>shift)&(fanout-1) != p {
						t.Errorf("seed %d: partition %d row %d misplaced", seed, p, i)
						return false
					}
				}
				rows += len(ids)
			}
			return rows == n
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 24}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestUnitSlotsConcatenateInUnitOrder: units finishing in reverse order —
// and one emitting twice — still come out in unit order, chunk order within.
func TestUnitSlotsConcatenateInUnitOrder(t *testing.T) {
	u := unitSlots{ncols: 2}
	u.units(nil, 4)
	err := qef.NewContext(qef.ModeX86).RunSerial(func(tc *qef.TaskCtx) error {
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
	got := u.columns()
	want := []int64{1, 2, 3, 20, 21, 22, 30, 31}
	if !reflect.DeepEqual(got[0], want) {
		t.Fatalf("column 0 = %v, want %v", got[0], want)
	}
	for i, v := range got[1] {
		if v != -want[i] {
			t.Fatalf("column 1 torn at %d: %v", i, got[1])
		}
	}
	if empty := (&unitSlots{ncols: 1}).columns(); len(empty) != 1 || len(empty[0]) != 0 {
		t.Fatalf("no units: %v", empty)
	}
}

// TestCollectSinkEmitsRunsInSeqOrder: core 1 runs all of its units before
// core 0 starts, with tiles of one unit split around other work; the
// relation is in unit (Seq) order all the same.
func TestCollectSinkEmitsRunsInSeqOrder(t *testing.T) {
	ctx := qef.NewContext(qef.ModeDPU) // 32 virtual cores
	sink := NewCollectSink([]Col{{Name: "v", Type: coltypes.Int()}})
	tcs := []*qef.TaskCtx{ctx.NewTaskCtx(0), ctx.NewTaskCtx(1)}
	for _, tc := range tcs {
		tc.BindPool(mem.NewTilePool())
	}
	feed := func(core, seq int, vals ...int64) {
		tc := tcs[core]
		if err := sink.Open(tc); err != nil {
			t.Fatal(err)
		}
		tc.Seq = seq
		if err := sink.Produce(tc, qef.NewTile([]coltypes.Data{coltypes.Of(vals)}, len(vals))); err != nil {
			t.Fatal(err)
		}
	}
	feed(1, 1, 10, 11)
	feed(1, 3, 30)
	feed(1, 3, 31, 32) // second tile of unit 3
	feed(0, 0, 1, 2)
	feed(0, 2, 20)
	got := sink.Relation().Cols[0].Data.I64()
	if want := []int64{1, 2, 10, 11, 20, 30, 31, 32}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	if sink.Rows() != 8 {
		t.Fatalf("Rows() = %d", sink.Rows())
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
		got := sink.Relation().Cols[0].Data.I64()
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
// function of columns, fan-out and the 16 Ki-row chunk count — not of the
// tile size, and not of the row count beyond one unit per chunk.
func TestPartitionByHashAllocsAreRowIndependent(t *testing.T) {
	// Exactly two workers: a batch allocates per core it starts (task context,
	// DMEM, goroutine), and the budget below counts two.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	scheme := PartScheme{Rounds: []int{8, 16}}
	measure := func(n, tileRows int) float64 {
		cols := lineitemLike(n, n/4+1).Datas()
		ctx := qef.NewContext(qef.ModeX86)
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
		t.Errorf("allocs depend on the tile size: %v at 64, %v at 256, %v at 1024 rows/tile", a, large, b)
	}
	// Re-derived for the leased path, on the heap (a context with no slab,
	// where every lease is one object — the upper bound). A split is 8
	// headers (cursor, bounds, the PartitionedRel with its Cols, Hashes and
	// lease list, the column views, the carved headers) and 5 buffers (hash
	// vector, 3 columns, position vector); 8x16 is 9 splits, round 0 and one
	// per first-round partition. The second round adds its 8 units, and each
	// of the four batches its error slots and two cores' task contexts:
	// 120 covers those. A 16 Ki-row chunk costs one closure in each of the
	// three chunked passes and nothing else (the per-chunk key slice is gone).
	const perSplit, splits, batches, perChunk = 8 + 5, 1 + 8, 120, 3
	chunks := func(n int) float64 { return float64((n + partChunkRows - 1) / partChunkRows) }
	if budget := perSplit*splits + batches + perChunk*chunks(300_000); large > budget {
		t.Errorf("300k rows: %v allocs, budget %v", large, budget)
	}
	if grow := large - small; grow > 8+perChunk*(chunks(300_000)-chunks(50_000)) {
		t.Errorf("allocs grow with rows beyond the chunk units: %v at 50k rows, %v at 300k", small, large)
	}
}

var benchSink int

// BenchmarkPartitionByHash: the 8x16 scheme of a SF 0.05 lineitem-sized
// input (300 k rows × 3 columns) on the host lane, leasing from a slab as a
// scheduled query does.
func BenchmarkPartitionByHash(b *testing.B) {
	cols := lineitemLike(300_000, 75_000).Datas()
	ctx := qef.NewContext(qef.ModeX86)
	ctx.Slab = mem.NewSlab(64<<20, nil)
	scheme := PartScheme{Rounds: []int{8, 16}}
	b.ReportAllocs()
	b.SetBytes(300_000 * 3 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts, err := PartitionByHash(ctx, cols, []int{0}, scheme, qef.DefaultTileRows)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += parts.NumPartitions()
		parts.Release()
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
	}
}
