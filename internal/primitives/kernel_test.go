package primitives

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rapid/internal/bits"
	"rapid/internal/coltypes"
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

func TestAggregate(t *testing.T) {
	core := testCore(t)
	vals := []int64{5, -3, 12, 7}
	st := NewAggState()
	Aggregate(core, vals, nil, &st)
	if st.Sum != 21 || st.Min != -3 || st.Max != 12 || st.Count != 4 {
		t.Fatalf("agg = %+v", st)
	}
	sel := bits.NewVector(4)
	sel.Set(0)
	sel.Set(2)
	st2 := NewAggState()
	Aggregate(core, vals, sel, &st2)
	if st2.Sum != 17 || st2.Count != 2 || st2.Min != 5 {
		t.Fatalf("masked agg = %+v", st2)
	}
	st.Merge(st2)
	if st.Sum != 38 || st.Count != 6 || st.Min != -3 || st.Max != 12 {
		t.Fatalf("merge = %+v", st)
	}
}

func TestGroupedAgg(t *testing.T) {
	core := testCore(t)
	g := NewGroupedAgg(3)
	gids := []uint32{0, 1, 0, 2, 1}
	vals := []int64{10, 20, 30, 40, 50}
	g.Accumulate(core, gids, vals)
	if g.Sums[0] != 40 || g.Sums[1] != 70 || g.Sums[2] != 40 {
		t.Fatalf("sums = %v", g.Sums)
	}
	if g.Counts[0] != 2 || g.Mins[1] != 20 || g.Maxs[1] != 50 {
		t.Fatal("counts/min/max wrong")
	}
	g.AccumulateCounts(core, gids)
	if g.Counts[0] != 4 {
		t.Fatal("AccumulateCounts")
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
	m := ComputePartitionMap(core, hv, 16, 0)
	if len(m.Offsets) != 16+1 {
		t.Fatal("fanout")
	}
	// Completeness: every row appears exactly once.
	seen := make([]bool, n)
	total := 0
	for p := 0; p < 16; p++ {
		for _, r := range m.RowIdx[m.Offsets[p]:m.Offsets[p+1]] {
			if seen[r] {
				t.Fatalf("row %d twice", r)
			}
			seen[r] = true
			total++
			// Row's hash must map to partition p.
			if int(hv[r]&15) != p {
				t.Fatalf("row %d in wrong partition", r)
			}
		}
	}
	if total != n {
		t.Fatalf("total = %d", total)
	}
}

func TestComputePartitionMapShift(t *testing.T) {
	// Shifted radix bits select a disjoint bit range — the mechanism behind
	// multi-round partitioning.
	hv := []uint32{0b0000, 0b0100, 0b1000, 0b1100}
	m0 := ComputePartitionMap(nil, hv, 4, 0)
	if m0.Rows(0) != 4 {
		t.Fatal("shift 0 should put all in partition 0")
	}
	m2 := ComputePartitionMap(nil, hv, 4, 2)
	for p := 0; p < 4; p++ {
		if m2.Rows(p) != 1 {
			t.Fatalf("shift 2 partition %d rows = %d", p, m2.Rows(p))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two fanout should panic")
		}
	}()
	ComputePartitionMap(nil, hv, 3, 0)
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
	m := ComputePartitionMap(core, hv, 8, 0)
	// Every partition of every column: the full software partitioning step
	// over one tile.
	cols := []coltypes.Data{key, val}
	parts := make([][]coltypes.Data, len(m.Offsets)-1)
	for p := range parts {
		parts[p] = make([]coltypes.Data, len(cols))
		for c, col := range cols {
			parts[p][c] = col.NewSame(m.Rows(p))
			coltypes.Gather(parts[p][c], col, m.RowIdx[m.Offsets[p]:m.Offsets[p+1]])
			ChargeSwPartitionGather(core, m.Rows(p))
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

func TestCompactHTBuildProbe(t *testing.T) {
	core := testCore(t)
	// Build over 8 tuples like the paper's Figure 6 example.
	buildKeys := []int64{10, 20, 30, 40, 10, 20, 50, 10}
	bk := coltypes.FromInt64s(coltypes.W4, buildKeys)
	hv := HashColumns(core, []coltypes.Data{bk}, nil)
	ht := NewCompactHT(len(buildKeys), 4)
	ht.Build(core, hv, buildKeys, nil, 256)
	if ht.Rows() != 8 || len(ht.ovRows) != 0 {
		t.Fatalf("rows=%d overflow=%d", ht.Rows(), len(ht.ovRows))
	}
	// Probe: key 10 matches rows 0,4,7; key 99 matches none.
	probeKeys := []int64{10, 99, 20}
	pk := coltypes.FromInt64s(coltypes.W4, probeKeys)
	phv := HashColumns(core, []coltypes.Data{pk}, nil)
	matches := ht.Probe(core, phv, probeKeys, nil, 256, nil)
	want := map[[2]uint32]bool{
		{0, 0}: true, {4, 0}: true, {7, 0}: true,
		{1, 2}: true, {5, 2}: true,
	}
	if len(matches) != len(want) {
		t.Fatalf("matches = %v", matches)
	}
	for _, m := range matches {
		if !want[[2]uint32{m.BuildRow, m.ProbeRow}] {
			t.Fatalf("unexpected match %+v", m)
		}
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
	core := testCore(t)
	// Capacity 8 but 20 build rows: 12 overflow to DRAM; all matches must
	// still be found (the §6.4 graceful degradation).
	n := 20
	buildKeys := make([]int64, n)
	for i := range buildKeys {
		buildKeys[i] = int64(i % 10)
	}
	bk := coltypes.FromInt64s(coltypes.W4, buildKeys)
	hv := HashColumns(core, []coltypes.Data{bk}, nil)
	ht := NewCompactHT(8, 4)
	ht.Build(core, hv, buildKeys, nil, 256)
	if len(ht.ovRows) != 12 || ht.Rows() != n {
		t.Fatalf("overflow = %d of %d rows, want 12 of %d", len(ht.ovRows), ht.Rows(), n)
	}
	probeKeys := []int64{3}
	pk := coltypes.FromInt64s(coltypes.W4, probeKeys)
	phv := HashColumns(core, []coltypes.Data{pk}, nil)
	matches := ht.Probe(core, phv, probeKeys, nil, 256, nil)
	// Key 3 occurs at rows 3 and 13.
	if len(matches) != 2 {
		t.Fatalf("matches = %v", matches)
	}
	got := []int{int(matches[0].BuildRow), int(matches[1].BuildRow)}
	sort.Ints(got)
	if got[0] != 3 || got[1] != 13 {
		t.Fatalf("matched rows %v, want [3 13]", got)
	}
}

func TestCompactHTSecondKey(t *testing.T) {
	buildK1 := []int64{1, 1, 2}
	buildK2 := []int64{10, 20, 10}
	bk := coltypes.FromInt64s(coltypes.W4, buildK1)
	hv := HashColumns(nil, []coltypes.Data{bk}, nil)
	ht := NewCompactHT(3, 4)
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
	ht := NewCompactHT(3, 4)
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
		ht := NewCompactHT(capacity, BucketsFor(nb))
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

func TestScalarDispatchCharges(t *testing.T) {
	core := testCore(t)
	ChargeScalarDispatch(core, 1000)
	if core.Cycles() == 0 || core.BranchMisses() == 0 {
		t.Fatal("scalar dispatch must charge cycles and branch misses")
	}
	ChargeTileOverhead(core)
}
