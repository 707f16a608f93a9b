package primitives

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rapid/internal/bits"
	"rapid/internal/coltypes"
	"rapid/internal/dpu"
)

func TestWidenToI64(t *testing.T) {
	core := testCore(t)
	for _, w := range []coltypes.Width{coltypes.W1, coltypes.W2, coltypes.W4, coltypes.W8} {
		d := col(w, -5, 0, 100)
		out := WidenToI64(core, d, nil)
		if len(out) != 3 || out[0] != -5 || out[2] != 100 {
			t.Fatalf("w%d: %v", w, out)
		}
	}
	// Buffer reuse.
	buf := make([]int64, 10)
	out := WidenToI64(nil, col(coltypes.W4, 1, 2), buf)
	if len(out) != 2 || out[1] != 2 {
		t.Fatal("reuse wrong")
	}
}

func TestArithmetic(t *testing.T) {
	core := testCore(t)
	a := []int64{1, 2, 3}
	b := []int64{10, 20, 30}
	out := make([]int64, 3)
	AddConst(core, a, 5, out)
	if out[2] != 8 {
		t.Fatal("AddConst")
	}
	MulConst(core, a, 3, out)
	if out[1] != 6 {
		t.Fatal("MulConst")
	}
	DivConst(core, b, 10, out)
	if out[2] != 3 {
		t.Fatal("DivConst")
	}
	AddCol(core, a, b, out)
	if out[0] != 11 {
		t.Fatal("AddCol")
	}
	SubCol(core, b, a, out)
	if out[1] != 18 {
		t.Fatal("SubCol")
	}
	MulCol(core, a, b, out)
	if out[2] != 90 {
		t.Fatal("MulCol")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("div by zero should panic")
		}
	}()
	DivConst(core, a, 0, out)
}

// TestAggregate pins the scalar aggregate's bill: costAggPerRow a row,
// truncated once per call, and nothing without a core.
func TestAggregate(t *testing.T) {
	core := testCore(t)
	ChargeAggregate(core, 4)
	if got := core.Cycles(); got != 6 {
		t.Fatalf("4 rows billed %d cycles, want 6", got)
	}
	ChargeAggregate(core, 3) // 4.5 cycles, truncated
	if got := core.Cycles(); got != 10 {
		t.Fatalf("3 more rows: %d cycles, want 10", got)
	}
	ChargeAggregate(nil, 4)
}

func TestGroupedAgg(t *testing.T) {
	core := testCore(t)
	gids := []uint32{0, 1, 0, 2, 1}
	vals := []int64{10, 20, 30, 40, 50}
	sums, counts := make([]int64, 3), make([]int64, 3)
	mins := []int64{math.MaxInt64, math.MaxInt64, math.MaxInt64}
	maxs := []int64{math.MinInt64, math.MinInt64, math.MinInt64}
	// Two tiles: each call adds to what the accumulator holds.
	for tile := 1; tile <= 2; tile++ {
		GroupedSums(core, sums, gids, vals)
		GroupedMins(core, mins, gids, vals)
		GroupedMaxs(core, maxs, gids, vals)
		GroupedCounts(core, counts, gids, tile == 2)
		if want := []int64{40 * int64(tile), 70 * int64(tile), 40 * int64(tile)}; !slices.Equal(sums, want) {
			t.Fatalf("tile %d: sums = %v, want %v", tile, sums, want)
		}
		if want := []int64{2 * int64(tile), 2 * int64(tile), int64(tile)}; !slices.Equal(counts, want) {
			t.Fatalf("tile %d: counts = %v, want %v", tile, counts, want)
		}
		if !slices.Equal(mins, []int64{10, 20, 40}) || !slices.Equal(maxs, []int64{30, 50, 40}) {
			t.Fatalf("tile %d: mins = %v, maxs = %v", tile, mins, maxs)
		}
	}
	// One group folds in a register, an empty tile included, and bills as
	// any other: 3 cycles a row for each of the four folds.
	sum, lo, hi, count := []int64{0}, []int64{math.MaxInt64}, []int64{math.MinInt64}, []int64{0}
	before := core.Cycles()
	for _, n := range []int{5, 0, 3} {
		ids := make([]uint32, n)
		GroupedSums(core, sum, ids, vals)
		GroupedMins(core, lo, ids, vals)
		GroupedMaxs(core, hi, ids, vals)
		GroupedCounts(core, count, ids, false)
	}
	if sum[0] != 210 || lo[0] != 10 || hi[0] != 50 || count[0] != 8 {
		t.Fatalf("one group: sum %d, min %d, max %d, count %d", sum[0], lo[0], hi[0], count[0])
	}
	if got := core.Cycles() - before; got != 96 {
		t.Fatalf("one group billed %d cycles, want 96", got)
	}
}

func TestHashColumns(t *testing.T) {
	core := testCore(t)
	a := col(coltypes.W4, 1, 2, 3, 1)
	b := col(coltypes.W8, 9, 9, 9, 9)
	hv := HashColumns(core, []coltypes.Data{a, b}, nil)
	if len(hv) != 4 {
		t.Fatal("len")
	}
	if hv[0] != hv[3] {
		t.Fatal("equal keys must hash equal")
	}
	if hv[0] == hv[1] {
		t.Fatal("different keys should differ")
	}
	// Same values at different widths hash identically (width-independent
	// key domain) — required for joining a W2 column against a W4 column.
	wa := HashColumns(nil, []coltypes.Data{col(coltypes.W2, 7)}, nil)
	wb := HashColumns(nil, []coltypes.Data{col(coltypes.W8, 7)}, nil)
	if wa[0] != wb[0] {
		t.Fatal("hash must be width independent")
	}
}

func TestComputePartitionMap(t *testing.T) {
	core := testCore(t)
	rng := rand.New(rand.NewSource(11))
	n := 5000
	keys := coltypes.New(coltypes.W4, n)
	for i := 0; i < n; i++ {
		keys.Set(i, int64(rng.Intn(1000)))
	}
	hv := HashColumns(core, []coltypes.Data{keys}, nil)
	before := core.Cycles()
	counts := make([]int, 16)
	counts[3] = -7 // a reused buffer: the counts start from zero
	ComputePartitionMap(core, hv, 0, counts)
	if got, want := core.Cycles()-before, dpu.Cycles(PartitionMapCost(n, 16)); got != want {
		t.Fatalf("charged %d cycles, want the full map's %d", got, want)
	}
	// Every row is counted once, in the partition its hash maps to.
	want := make([]int, 16)
	for _, h := range hv {
		want[h&15]++
	}
	for p := range want {
		if counts[p] != want[p] {
			t.Fatalf("partition %d: %d rows, want %d", p, counts[p], want[p])
		}
	}
}

func TestComputePartitionMapShift(t *testing.T) {
	// Shifted radix bits select a disjoint bit range — the mechanism behind
	// multi-round partitioning.
	hv := []uint32{0b0000, 0b0100, 0b1000, 0b1100}
	counts := make([]int, 4)
	ComputePartitionMap(nil, hv, 0, counts)
	if counts[0] != 4 {
		t.Fatal("shift 0 should put all in partition 0")
	}
	ComputePartitionMap(nil, hv, 2, counts)
	for p := 0; p < 4; p++ {
		if counts[p] != 1 {
			t.Fatalf("shift 2 partition %d rows = %d", p, counts[p])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two fanout should panic")
		}
	}()
	ComputePartitionMap(nil, hv, 0, make([]int, 3))
}

func TestSwPartitionAll(t *testing.T) {
	core := testCore(t)
	n := 1000
	key := coltypes.New(coltypes.W4, n)
	val := coltypes.New(coltypes.W8, n)
	for i := 0; i < n; i++ {
		key.Set(i, int64(i))
		val.Set(i, int64(i*100))
	}
	hv := HashColumns(core, []coltypes.Data{key}, nil)
	counts := make([]int, 8)
	ComputePartitionMap(core, hv, 0, counts)
	// Every partition of every column: the full software partitioning step
	// over one tile, each partition's rows gathered in input order.
	rowsOf := make([][]uint32, len(counts))
	for i, h := range hv {
		rowsOf[h&7] = append(rowsOf[h&7], uint32(i))
	}
	cols := []coltypes.Data{key, val}
	parts := make([][]coltypes.Data, len(counts))
	for p := range parts {
		if len(rowsOf[p]) != counts[p] {
			t.Fatalf("partition %d: map counts %d rows, the hashes put %d there", p, counts[p], len(rowsOf[p]))
		}
		parts[p] = make([]coltypes.Data, len(cols))
		for c, col := range cols {
			parts[p][c] = col.NewSame(counts[p])
			coltypes.Gather(parts[p][c], col, rowsOf[p])
			ChargeSwPartitionGather(core, counts[p])
		}
	}
	total := 0
	for p := range parts {
		rows := parts[p][0].Len()
		total += rows
		for i := 0; i < rows; i++ {
			k := parts[p][0].Get(i)
			if parts[p][1].Get(i) != k*100 {
				t.Fatal("row torn across columns")
			}
		}
	}
	if total != n {
		t.Fatalf("total = %d", total)
	}
}

// newTestHT returns a compact table for n build rows over freshly made
// storage, with second-key storage when twoKeys.
func newTestHT(capacity, nBuckets, n int, twoKeys bool) CompactHT {
	var keys2 []int64
	if twoKeys {
		keys2 = make([]int64, n)
	}
	return NewCompactHT(capacity, nBuckets, make([]uint32, nBuckets+1), make([]uint32, n), make([]int64, n), keys2)
}

func TestCompactHTBuildProbe(t *testing.T) {
	core := testCore(t)
	// Build over 8 tuples like the paper's Figure 6 example.
	buildKeys := []int64{10, 20, 30, 40, 10, 20, 50, 10}
	bk := coltypes.FromInt64s(coltypes.W4, buildKeys)
	hv := HashColumns(core, []coltypes.Data{bk}, nil)
	ht := newTestHT(len(buildKeys), 4, len(buildKeys), false)
	ht.Build(core, hv, buildKeys, nil, 256)
	if ht.Rows() != 8 {
		t.Fatalf("rows=%d", ht.Rows())
	}
	// Probe: key 10 matches rows 7, 4, 0 (newest first); key 99 none.
	probeKeys := []int64{10, 99, 20}
	pk := coltypes.FromInt64s(coltypes.W4, probeKeys)
	phv := HashColumns(core, []coltypes.Data{pk}, nil)
	matches := ht.Probe(core, phv, probeKeys, nil, 256, nil)
	want := []Match{{7, 0}, {4, 0}, {0, 0}, {5, 2}, {1, 2}}
	if !slices.Equal(matches, want) {
		t.Fatalf("matches = %v, want %v", matches, want)
	}
}

func TestCompactHTBitWidth(t *testing.T) {
	// The packed arrays must use ceil(log2 N) bits: for 1000 rows (+1
	// sentinel) that is 10 bits, so link = 1250 bytes, not 4000.
	wantLink := bits.PackedSizeBytes(1000, 10)
	wantBuckets := bits.PackedSizeBytes(256, 10)
	if HTSizeBytes(1000, 256) != wantLink+wantBuckets {
		t.Fatal("HTSizeBytes mismatch")
	}
	// A 4096-row DMEM partition table fits comfortably in 32 KiB.
	if HTSizeBytes(4096, 1024) > 10*1024 {
		t.Fatalf("4096-row table = %d bytes", HTSizeBytes(4096, 1024))
	}
}

func TestBucketsFor(t *testing.T) {
	// Power of two, 2-4x smaller than rows (paper §6.3).
	for _, n := range []int{10, 100, 1000, 4096, 5000} {
		b := BucketsFor(n)
		if b&(b-1) != 0 {
			t.Fatalf("BucketsFor(%d) = %d not power of two", n, b)
		}
		if b*4 < n || (n > 4 && b >= n) {
			t.Fatalf("BucketsFor(%d) = %d out of 2-4x range", n, b)
		}
	}
	if BucketsFor(1) != 4 {
		t.Fatal("min buckets")
	}
}

func TestCompactHTOverflow(t *testing.T) {
	// Capacity 8 but 20 build rows: 12 overflow to DRAM; all matches must
	// still be found (the §6.4 graceful degradation), and the probe pays DRAM
	// latency for the 12 rows on top of what a DMEM-resident table costs.
	n := 20
	buildKeys := make([]int64, n)
	for i := range buildKeys {
		buildKeys[i] = int64(i % 10)
	}
	bk := coltypes.FromInt64s(coltypes.W4, buildKeys)
	hv := HashColumns(nil, []coltypes.Data{bk}, nil)
	probeKeys := []int64{3}
	pk := coltypes.FromInt64s(coltypes.W4, probeKeys)
	phv := HashColumns(nil, []coltypes.Data{pk}, nil)
	probe := func(capacity int) ([]Match, dpu.Cycles) {
		ht := newTestHT(capacity, 4, n, false)
		ht.Build(nil, hv, buildKeys, nil, 256)
		if ht.Rows() != n {
			t.Fatalf("capacity %d: rows = %d, want %d", capacity, ht.Rows(), n)
		}
		core := testCore(t)
		return ht.Probe(core, phv, probeKeys, nil, 256, nil), core.Cycles()
	}
	matches, overflowed := probe(8)
	// Key 3 occurs at rows 13 and 3.
	if want := []Match{{13, 0}, {3, 0}}; !slices.Equal(matches, want) {
		t.Fatalf("matches = %v, want %v", matches, want)
	}
	_, resident := probe(n)
	if got, want := overflowed-resident, dpu.Cycles(20*1*12/float64(n+1)); got != want {
		t.Fatalf("overflow costs %d cycles more than a resident table, want %d", got, want)
	}
}

func TestCompactHTSecondKey(t *testing.T) {
	buildK1 := []int64{1, 1, 2}
	buildK2 := []int64{10, 20, 10}
	bk := coltypes.FromInt64s(coltypes.W4, buildK1)
	hv := HashColumns(nil, []coltypes.Data{bk}, nil)
	ht := newTestHT(3, 4, 3, true)
	ht.Build(nil, hv, buildK1, buildK2, 256)
	probeK1 := []int64{1}
	probeK2 := []int64{20}
	pk := coltypes.FromInt64s(coltypes.W4, probeK1)
	phv := HashColumns(nil, []coltypes.Data{pk}, nil)
	matches := ht.Probe(nil, phv, probeK1, probeK2, 256, nil)
	if len(matches) != 1 || matches[0].BuildRow != 1 {
		t.Fatalf("composite key matches = %v", matches)
	}
}

func TestProbeExists(t *testing.T) {
	buildKeys := []int64{1, 2, 3}
	bk := coltypes.FromInt64s(coltypes.W4, buildKeys)
	hv := HashColumns(nil, []coltypes.Data{bk}, nil)
	ht := newTestHT(3, 4, 3, false)
	ht.Build(nil, hv, buildKeys, nil, 256)
	probeKeys := []int64{2, 9, 3, 9}
	pk := coltypes.FromInt64s(coltypes.W4, probeKeys)
	phv := HashColumns(nil, []coltypes.Data{pk}, nil)
	out := bits.NewVector(4)
	hits := ht.ProbeExists(nil, phv, probeKeys, nil, 256, out)
	if hits != 2 || !out.Test(0) || !out.Test(2) || out.Test(1) {
		t.Fatalf("exists: %d %s", hits, out)
	}
}

// Property: hash join kernel agrees with a nested-loop reference on random
// inputs, including under DMEM overflow.
func TestCompactHTEquivalence(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nb := rng.Intn(200) + 1
		np := rng.Intn(200) + 1
		capacity := int(capRaw)%nb + 1 // may force overflow
		buildKeys := make([]int64, nb)
		for i := range buildKeys {
			buildKeys[i] = int64(rng.Intn(50))
		}
		probeKeys := make([]int64, np)
		for i := range probeKeys {
			probeKeys[i] = int64(rng.Intn(50))
		}
		bk := coltypes.FromInt64s(coltypes.W8, buildKeys)
		pk := coltypes.FromInt64s(coltypes.W8, probeKeys)
		ht := newTestHT(capacity, BucketsFor(nb), nb, false)
		ht.Build(nil, HashColumns(nil, []coltypes.Data{bk}, nil), buildKeys, nil, 256)
		matches := ht.Probe(nil, HashColumns(nil, []coltypes.Data{pk}, nil), probeKeys, nil, 256, nil)
		got := map[[2]uint32]int{}
		for _, m := range matches {
			got[[2]uint32{m.BuildRow, m.ProbeRow}]++
		}
		wantCount := 0
		for p, pkv := range probeKeys {
			for b, bkv := range buildKeys {
				if pkv == bkv {
					wantCount++
					if got[[2]uint32{uint32(b), uint32(p)}] != 1 {
						return false
					}
				}
			}
		}
		return wantCount == len(matches)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// chainedHT is the reference the compact table is held to: the bucket-chained
// layout of paper §6.3 — `hash-buckets` holds the last DMEM row per bucket,
// `link` chains earlier rows of the bucket backwards — with its §6.4 DRAM
// overflow region, where rows beyond the capacity go to a map-indexed chain
// that continues into the DMEM chain. Plain slices stand in for bit-packed
// arrays, which changes nothing it computes. It picks a bucket by the low hash
// bits where the compact table takes the top bits: the match order may not
// depend on which bits pick a bucket.
type chainedHT struct {
	mask     uint32
	capacity int
	buckets  []int32 // last DMEM row per bucket; -1 = empty
	link     []int32 // previous DMEM row of the same bucket; -1 ends
	keys     []int64
	keys2    []int64
	rows     int // rows in the DMEM region

	ovBuckets      map[uint32]int32 // bucket -> last overflow row
	ovLink         []int32          // chain among overflow rows; -1 ends
	ovToDmemChain  []int32          // where a bucket's overflow chain continues in DMEM; -1 = nowhere
	ovKeys, ovKey2 []int64
	ovRows         []int32 // build row ids of the overflow rows
}

func newChainedHT(capacity, nBuckets int) *chainedHT {
	ht := &chainedHT{
		mask:      uint32(nBuckets - 1),
		capacity:  capacity,
		buckets:   make([]int32, nBuckets),
		link:      make([]int32, capacity),
		ovBuckets: map[uint32]int32{},
	}
	for b := range ht.buckets {
		ht.buckets[b] = -1
	}
	return ht
}

func (ht *chainedHT) build(core *dpu.Core, hv []uint32, keys, keys2 []int64, tileRows int) {
	ht.keys, ht.keys2 = keys, keys2
	for i, h := range hv {
		b := h & ht.mask
		if ht.rows < ht.capacity {
			ht.link[ht.rows] = ht.buckets[b]
			ht.buckets[b] = int32(ht.rows)
			ht.rows++
			continue
		}
		if prev, seen := ht.ovBuckets[b]; seen {
			ht.ovLink = append(ht.ovLink, prev)
			ht.ovToDmemChain = append(ht.ovToDmemChain, -1)
		} else {
			ht.ovLink = append(ht.ovLink, -1)
			ht.ovToDmemChain = append(ht.ovToDmemChain, ht.buckets[b])
		}
		ht.ovBuckets[b] = int32(len(ht.ovRows))
		ht.ovKeys = append(ht.ovKeys, keys[i])
		if keys2 != nil {
			ht.ovKey2 = append(ht.ovKey2, keys2[i])
		}
		ht.ovRows = append(ht.ovRows, int32(i))
	}
	charge(core, JoinBuildCost(len(hv), tileRows))
}

// walk visits the build rows of hash h's bucket newest first — the overflow
// chain, then the DMEM chain it continues into — and calls emit for each
// whose keys equal (k, k2), until emit returns false.
func (ht *chainedHT) walk(h uint32, k, k2 int64, emit func(row uint32) bool) {
	b := h & ht.mask
	dm := ht.buckets[b]
	if ov, ok := ht.ovBuckets[b]; ok {
		for cur := ov; cur >= 0; cur = ht.ovLink[cur] {
			if ht.ovKeys[cur] == k && (ht.keys2 == nil || ht.ovKey2[cur] == k2) && !emit(uint32(ht.ovRows[cur])) {
				return
			}
			if ht.ovLink[cur] < 0 {
				dm = ht.ovToDmemChain[cur]
			}
		}
	}
	for cur := dm; cur >= 0; cur = ht.link[cur] {
		if ht.keys[cur] == k && (ht.keys2 == nil || ht.keys2[cur] == k2) && !emit(uint32(cur)) {
			return
		}
	}
}

func (ht *chainedHT) probe(core *dpu.Core, hv []uint32, keys, keys2 []int64, tileRows int) []Match {
	var out []Match
	for i, h := range hv {
		var k2 int64
		if keys2 != nil {
			k2 = keys2[i]
		}
		ht.walk(h, keys[i], k2, func(row uint32) bool {
			out = append(out, Match{BuildRow: row, ProbeRow: uint32(i)})
			return true
		})
	}
	n := len(hv)
	ratio := 0.0
	if n > 0 {
		ratio = float64(len(out)) / float64(n)
	}
	charge(core, JoinProbeCost(n, tileRows, ratio))
	if len(ht.ovRows) > 0 {
		charge(core, 20*float64(n)*float64(len(ht.ovRows))/float64(ht.rows+len(ht.ovRows)+1))
	}
	return out
}

func (ht *chainedHT) probeExists(core *dpu.Core, hv []uint32, keys, keys2 []int64, tileRows int, out *bits.Vector) int {
	hits := 0
	for i, h := range hv {
		var k2 int64
		if keys2 != nil {
			k2 = keys2[i]
		}
		ht.walk(h, keys[i], k2, func(uint32) bool {
			out.Set(i)
			hits++
			return false
		})
	}
	n := len(hv)
	ratio := 0.0
	if n > 0 {
		ratio = float64(hits) / float64(n)
	}
	charge(core, JoinProbeCost(n, tileRows, ratio))
	return hits
}

// TestCompactHTMatchesChainedReference is the compact table's contract: over
// random partitions — duplicate-heavy keys, a capacity below the row count,
// two keys, an empty build, one row — it emits the chained reference's
// matches element by element and in order, marks the same probe rows
// existing, and bills the same cycles to the bit.
func TestCompactHTMatchesChainedReference(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nb := []int{0, 1, rng.Intn(64) + 2, rng.Intn(600) + 2}[seed%4]
		np := rng.Intn(400) + 1
		domain := []int64{1, 3, 40, 1 << 40}[rng.Intn(4)] // duplicate-heavy to unique
		twoKeys := rng.Intn(2) == 0
		capacity := nb
		if rng.Intn(2) == 0 {
			capacity = rng.Intn(nb + 1) // overflows unless it draws nb
		}
		nBuckets := BucketsFor(nb)
		keyCols := func(n int) (hv []uint32, k1, k2 []int64) {
			k1 = make([]int64, n)
			cols := []coltypes.Data{coltypes.Of(k1)}
			if twoKeys {
				k2 = make([]int64, n)
				cols = append(cols, coltypes.Of(k2))
			}
			for i := range k1 {
				k1[i] = rng.Int63n(domain)
				if twoKeys {
					k2[i] = rng.Int63n(2)
				}
			}
			return HashColumns(nil, cols, nil), k1, k2
		}
		bhv, bk1, bk2 := keyCols(nb)
		phv, pk1, pk2 := keyCols(np)

		refCore, core := testCore(t), testCore(t)
		ref := newChainedHT(capacity, nBuckets)
		ref.build(refCore, bhv, bk1, bk2, 256)
		ht := newTestHT(capacity, nBuckets, nb, twoKeys)
		ht.Build(core, bhv, bk1, bk2, 256)
		want := ref.probe(refCore, phv, pk1, pk2, 256)
		got := ht.Probe(core, phv, pk1, pk2, 256, nil)
		what := fmt.Sprintf("seed %d (%d build rows, capacity %d, %d probe rows, key domain %d, two keys %v)",
			seed, nb, capacity, np, domain, twoKeys)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %d matches, want the reference's %d in its order", what, len(got), len(want))
		}
		if core.Cycles() != refCore.Cycles() {
			t.Fatalf("%s: Build + Probe bills %d cycles, reference %d", what, core.Cycles(), refCore.Cycles())
		}
		wantBV, gotBV := bits.NewVector(np), bits.NewVector(np)
		wantHits := ref.probeExists(refCore, phv, pk1, pk2, 256, wantBV)
		gotHits := ht.ProbeExists(core, phv, pk1, pk2, 256, gotBV)
		if gotHits != wantHits || gotBV.String() != wantBV.String() {
			t.Fatalf("%s: ProbeExists marks %d rows (%s), reference %d (%s)", what, gotHits, gotBV, wantHits, wantBV)
		}
		if core.Cycles() != refCore.Cycles() {
			t.Fatalf("%s: ProbeExists bills %d cycles, reference %d", what, core.Cycles(), refCore.Cycles())
		}
	}
}

// benchJoinPartition is one DMEM-sized partition pair as in Fig 12: 4 Ki
// build rows with distinct keys and 4 Ki probe rows of which half hit, with
// a second key column that always matches when twoKeys.
func benchJoinPartition(twoKeys bool) (bhv, phv []uint32, bk1, bk2, pk1, pk2 []int64) {
	const rows = 4096
	bk1, pk1 = make([]int64, rows), make([]int64, rows)
	for i := range bk1 {
		bk1[i], pk1[i] = int64(i), int64(2*i)
	}
	bcols, pcols := []coltypes.Data{coltypes.Of(bk1)}, []coltypes.Data{coltypes.Of(pk1)}
	if twoKeys {
		bk2, pk2 = make([]int64, rows), make([]int64, rows)
		for i := range bk2 {
			bk2[i], pk2[i] = int64(i%7), int64(2*i%7)
		}
		bcols, pcols = append(bcols, coltypes.Of(bk2)), append(pcols, coltypes.Of(pk2))
	}
	return HashColumns(nil, bcols, nil), HashColumns(nil, pcols, nil), bk1, bk2, pk1, pk2
}

func BenchmarkCompactHTBuild(b *testing.B) {
	for _, keys := range []int{1, 2} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			bhv, _, bk1, bk2, _, _ := benchJoinPartition(keys == 2)
			n := len(bhv)
			ht := newTestHT(n, BucketsFor(n), n, keys == 2)
			b.ReportAllocs()
			b.SetBytes(int64(n) * 8 * int64(keys))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ht.Build(nil, bhv, bk1, bk2, 256)
			}
		})
	}
}

func BenchmarkCompactHTProbe(b *testing.B) {
	for _, keys := range []int{1, 2} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			bhv, phv, bk1, bk2, pk1, pk2 := benchJoinPartition(keys == 2)
			n := len(bhv)
			ht := newTestHT(n, BucketsFor(n), n, keys == 2)
			ht.Build(nil, bhv, bk1, bk2, 256)
			out := make([]Match, 0, len(phv))
			b.ReportAllocs()
			b.SetBytes(int64(len(phv)) * 8 * int64(keys))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = ht.Probe(nil, phv, pk1, pk2, 256, out[:0])
			}
			if len(out) != len(phv)/2 {
				b.Fatalf("%d matches, want %d", len(out), len(phv)/2)
			}
		})
	}
}

func TestScalarDispatchCharges(t *testing.T) {
	core := testCore(t)
	ChargeScalarDispatch(core, 1000)
	if core.Cycles() == 0 || core.BranchMisses() == 0 {
		t.Fatal("scalar dispatch must charge cycles and branch misses")
	}
	ChargeTileOverhead(core)
}
