package primitives

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rapid/internal/bits"
	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/plan"
)

func testCore(t testing.TB) *dpu.Core {
	t.Helper()
	return dpu.MustNew(dpu.DefaultConfig()).Core(0)
}

func col(w coltypes.Width, vals ...int64) coltypes.Data {
	return coltypes.FromInt64s(w, vals)
}

func TestCmpOps(t *testing.T) {
	type c struct {
		op   plan.CmpOp
		a, b int64
		want bool
	}
	cases := []c{
		{plan.EQ, 5, 5, true}, {plan.EQ, 5, 6, false},
		{plan.NE, 5, 6, true}, {plan.NE, 5, 5, false},
		{plan.LT, 4, 5, true}, {plan.LT, 5, 5, false},
		{plan.LE, 5, 5, true}, {plan.LE, 6, 5, false},
		{plan.GT, 6, 5, true}, {plan.GT, 5, 5, false},
		{plan.GE, 5, 5, true}, {plan.GE, 4, 5, false},
	}
	for _, tc := range cases {
		if got := cmp(tc.op, tc.a, tc.b); got != tc.want {
			t.Errorf("%d %v %d = %v", tc.a, tc.op, tc.b, got)
		}
	}
	for _, op := range []plan.CmpOp{plan.EQ, plan.NE, plan.LT, plan.LE, plan.GT, plan.GE} {
		for a := int64(-2); a <= 2; a++ {
			for b := int64(-2); b <= 2; b++ {
				if cmp(op, a, b) != cmp(op.Swap(), b, a) {
					t.Fatalf("%v swap wrong on (%d,%d)", op, a, b)
				}
			}
		}
	}
}

func TestFilterConstBVAllWidths(t *testing.T) {
	core := testCore(t)
	for _, w := range []coltypes.Width{coltypes.W1, coltypes.W2, coltypes.W4, coltypes.W8} {
		d := col(w, 1, 5, 3, 5, 7, 5, 0)
		bv := bits.NewVector(d.Len())
		hits := FilterConstBV(core, d, plan.EQ, 5, bv)
		if hits != 3 || bv.Count() != 3 {
			t.Fatalf("w%d: hits=%d count=%d", w, hits, bv.Count())
		}
		if !bv.Test(1) || !bv.Test(3) || !bv.Test(5) || bv.Test(0) {
			t.Fatalf("w%d: wrong rows: %s", w, bv)
		}
	}
	if core.Cycles() == 0 {
		t.Fatal("filter should charge cycles")
	}
}

func TestFilterConstBVMaskedChain(t *testing.T) {
	// Chained predicates as in Listing 1: second filter sees only rows that
	// passed the first.
	core := testCore(t)
	a := col(coltypes.W4, 10, 20, 30, 40, 50, 60)
	b := col(coltypes.W4, 1, 1, 2, 2, 1, 2)
	bv1 := bits.NewVector(6)
	FilterConstBV(core, a, plan.GT, 25, bv1) // rows 2,3,4,5
	bv2 := bits.NewVector(6)
	hits := FilterConstBVMasked(core, b, plan.EQ, 2, bv1, bv2) // rows 2,3,5
	if hits != 3 || !bv2.Test(2) || !bv2.Test(3) || !bv2.Test(5) {
		t.Fatalf("chain wrong: hits=%d %s", hits, bv2)
	}
	if bv2.Test(1) {
		t.Fatal("row 1 failed first predicate but passed second")
	}
	// Masked filter cost: per-candidate work plus the bit-vector word scan
	// (the BVLD loop must touch every word) — far below the dense cost but
	// not free.
	c1 := testCore(t)
	big := coltypes.New(coltypes.W4, 100000)
	sparse := bits.NewVector(100000)
	sparse.Set(5)
	out := bits.NewVector(100000)
	FilterConstBVMasked(c1, big, plan.EQ, 0, sparse, out)
	words := int64((100000 + 63) / 64)
	if cy := int64(c1.Cycles()); cy < 3*words || cy > 4*words+100 {
		t.Fatalf("masked filter on 1 candidate charged %d cycles, want ~%d (word scan)", cy, 3*words)
	}
	if int64(c1.Cycles()) > int64(FilterCost(100000))/10 {
		t.Fatal("sparse masked filter should be far cheaper than a dense pass")
	}
}

func TestFilterConstRIDs(t *testing.T) {
	core := testCore(t)
	d := col(coltypes.W2, 5, 1, 5, 2, 5)
	rids := FilterConstRIDs(core, d, plan.EQ, 5, nil, nil)
	if len(rids) != 3 || rids[0] != 0 || rids[1] != 2 || rids[2] != 4 {
		t.Fatalf("dense RIDs = %v", rids)
	}
	// Chained through a candidate list.
	d2 := col(coltypes.W2, 9, 9, 7, 9, 7)
	rids2 := FilterConstRIDs(core, d2, plan.EQ, 7, rids, nil)
	if len(rids2) != 2 || rids2[0] != 2 || rids2[1] != 4 {
		t.Fatalf("chained RIDs = %v", rids2)
	}
}

func TestFilterBetween(t *testing.T) {
	core := testCore(t)
	d := col(coltypes.W4, 5, 15, 25, 35, 45)
	bv := bits.NewVector(5)
	hits := FilterBetweenBV(core, d, 10, 40, nil, bv)
	if hits != 3 || !bv.Test(1) || !bv.Test(2) || !bv.Test(3) {
		t.Fatalf("between: hits=%d %s", hits, bv)
	}
	// Masked variant.
	in := bits.NewVector(5)
	in.Set(1)
	in.Set(4)
	bv2 := bits.NewVector(5)
	if hits := FilterBetweenBV(core, d, 10, 50, in, bv2); hits != 2 || !bv2.Test(1) || !bv2.Test(4) {
		t.Fatalf("masked between wrong: %d %s", hits, bv2)
	}
	// Bounds clamping: range entirely above a W1 domain matches nothing.
	small := col(coltypes.W1, 1, 2, 3)
	bv3 := bits.NewVector(3)
	if hits := FilterBetweenBV(core, small, 300, 400, nil, bv3); hits != 0 {
		t.Fatal("clamped-empty range should match nothing")
	}
	// Range straddling the domain clamps correctly.
	bv4 := bits.NewVector(3)
	if hits := FilterBetweenBV(core, small, 2, 1000, nil, bv4); hits != 2 {
		t.Fatalf("straddling range hits = %d", hits)
	}
}

func TestFilterColCol(t *testing.T) {
	core := testCore(t)
	a := col(coltypes.W4, 1, 5, 3, 7)
	b := col(coltypes.W4, 2, 4, 3, 9)
	bv := bits.NewVector(4)
	if hits := FilterColColBV(core, a, b, plan.LT, nil, bv); hits != 2 || !bv.Test(0) || !bv.Test(3) {
		t.Fatalf("colcol LT: %d %s", hits, bv)
	}
	// Mixed widths widen.
	c := col(coltypes.W8, 2, 4, 3, 9)
	bv2 := bits.NewVector(4)
	if hits := FilterColColBV(core, a, c, plan.EQ, nil, bv2); hits != 1 || !bv2.Test(2) {
		t.Fatalf("mixed width colcol: %d %s", hits, bv2)
	}
}

func TestFilterInSet(t *testing.T) {
	core := testCore(t)
	codes := col(coltypes.W4, 0, 1, 2, 3, 1, 9)
	set := bits.NewVector(4)
	set.Set(1)
	set.Set(3)
	bv := bits.NewVector(6)
	hits := FilterInSetBV(core, codes, set, nil, bv)
	if hits != 3 || !bv.Test(1) || !bv.Test(3) || !bv.Test(4) {
		t.Fatalf("inset: %d %s", hits, bv)
	}
	if bv.Test(5) {
		t.Fatal("out-of-domain code 9 must not match")
	}
}

func TestDegenerateConstants(t *testing.T) {
	core := testCore(t)
	d := col(coltypes.W1, 1, 2, 3) // domain [-128,127]
	bv := bits.NewVector(3)
	if hits := FilterConstBV(core, d, plan.LT, 1000, bv); hits != 3 {
		t.Fatalf("x < 1000 over W1 should be all: %d", hits)
	}
	bv2 := bits.NewVector(3)
	if hits := FilterConstBV(core, d, plan.GT, 1000, bv2); hits != 0 {
		t.Fatalf("x > 1000 over W1 should be none: %d", hits)
	}
	bv3 := bits.NewVector(3)
	if hits := FilterConstBV(core, d, plan.EQ, -1000, bv3); hits != 0 {
		t.Fatal("x == -1000 over W1 should be none")
	}
	bv4 := bits.NewVector(3)
	if hits := FilterConstBV(core, d, plan.GE, -1000, bv4); hits != 3 {
		t.Fatal("x >= -1000 over W1 should be all")
	}
	// Masked and RID variants agree.
	in := bits.NewVector(3)
	in.SetAll()
	bv5 := bits.NewVector(3)
	if hits := FilterConstBVMasked(core, d, plan.NE, 1000, in, bv5); hits != 3 {
		t.Fatal("masked degenerate NE wrong")
	}
	if rids := FilterConstRIDs(core, d, plan.LE, 1000, nil, nil); len(rids) != 3 {
		t.Fatal("RID degenerate LE wrong")
	}
}

// Property: BV and RID filter variants agree with a reference evaluation.
func TestFilterVariantsAgree(t *testing.T) {
	f := func(seed int64, opRaw uint8, cval int16) bool {
		rng := rand.New(rand.NewSource(seed))
		op := plan.CmpOp(int(opRaw) % 6)
		n := rng.Intn(300) + 1
		d := coltypes.New(coltypes.W2, n)
		for i := 0; i < n; i++ {
			d.Set(i, int64(int16(rng.Intn(1<<16)-(1<<15))))
		}
		bv := bits.NewVector(n)
		hits := FilterConstBV(nil, d, op, int64(cval), bv)
		rids := FilterConstRIDs(nil, d, op, int64(cval), nil, nil)
		if hits != len(rids) {
			return false
		}
		ref := 0
		for i := 0; i < n; i++ {
			if cmp(op, d.Get(i), int64(cval)) {
				ref++
				if !bv.Test(i) {
					return false
				}
			}
		}
		return ref == hits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// The headline micro-benchmark of §7.2: the modeled filter rate must be
// ~482 M rows/s per core (1.65 cycles/row at 800 MHz).
func TestFilterRateCalibration(t *testing.T) {
	core := testCore(t)
	const n = 1 << 20
	d := coltypes.New(coltypes.W4, n)
	bv := bits.NewVector(n)
	FilterConstBV(core, d, plan.EQ, 1, bv)
	cyclesPerRow := float64(core.Cycles()) / n
	if cyclesPerRow < 1.55 || cyclesPerRow > 1.75 {
		t.Fatalf("filter = %.3f cycles/row, want ~1.65", cyclesPerRow)
	}
	rate := 800e6 / cyclesPerRow
	if rate < 455e6 || rate > 520e6 {
		t.Fatalf("filter rate = %.0f rows/s/core, want ~482M", rate)
	}
}
