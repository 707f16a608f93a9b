package primitives

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rapid/internal/bits"
	"rapid/internal/coltypes"
)

var filterWidths = []coltypes.Width{coltypes.W1, coltypes.W2, coltypes.W4, coltypes.W8}

// keyTuple renders row i of the key columns.
func keyTuple(cols []coltypes.Data, i int) string {
	s := ""
	for _, c := range cols {
		s += fmt.Sprintf("%d,", c.Get(i))
	}
	return s
}

// fillFilter fills a 2^logBits-bit filter from the build key columns, hashed
// as the join's partitioning hashes them.
func fillFilter(t *testing.T, build []coltypes.Data, partBits, logBits uint) []uint64 {
	t.Helper()
	words := make([]uint64, 1<<logBits/64)
	if build[0].Len() > 0 {
		hv := HashColumns(nil, build, nil)
		core := testCore(t)
		FillJoinFilter(core, hv, words, partBits, logBits)
		if got, want := int64(core.Cycles()), int64(JoinFilterFillCost(len(hv))); got != want {
			t.Errorf("fill of %d hashes billed %d cycles, want %d", len(hv), got, want)
		}
	}
	return words
}

// TestJoinFilterNeverDropsAMatch: random build and probe keys, one and two of
// them, at every width, the build keys drawn from a small domain so that they
// repeat, and every input mask. No probe row whose key the build side holds
// is dropped; every row's verdict is the bit of its key hash; only candidate
// rows pass; and the bill is the test cost per candidate row, plus the mask's
// words when masked.
func TestJoinFilterNeverDropsAMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		nkeys := 1 + rng.Intn(2)
		nb, np := rng.Intn(300), 1+rng.Intn(700)
		partBits := uint(rng.Intn(4))
		logBits := partBits + 6 + uint(rng.Intn(5))
		build, probe := make([]coltypes.Data, nkeys), make([]coltypes.Data, nkeys)
		for k := range build {
			w := filterWidths[rng.Intn(len(filterWidths))]
			bv, pv := make([]int64, nb), make([]int64, np)
			for i := range bv {
				bv[i] = testValue(w, rng) % 40
			}
			for i := range pv {
				pv[i] = testValue(w, rng)
			}
			build[k], probe[k] = coltypes.FromInt64s(w, bv), coltypes.FromInt64s(w, pv)
		}
		// Half the probe rows copy a build row's keys.
		if nb > 0 {
			for i := 0; i < np; i += 2 {
				b := rng.Intn(nb)
				for k := range probe {
					probe[k].Set(i, build[k].Get(b))
				}
			}
		}
		held := make(map[string]bool)
		for i := 0; i < nb; i++ {
			held[keyTuple(build, i)] = true
		}
		words := fillFilter(t, build, partBits, logBits)
		hv := HashColumns(nil, probe, nil)
		mode := maskModes[rng.Intn(len(maskModes))]
		in := testMask(mode, np, rng)
		out := garbageVector(np)
		core := testCore(t)
		hits := FilterJoinBV(core, probe, words, partBits, logBits, in, out)
		candidates := np
		if in != nil {
			candidates = in.Count()
		}
		want := FilterCost(candidates) + (JoinFilterTestCost(nkeys)-costFilterPerRow)*float64(candidates)
		if in != nil {
			want += costFilterPerWord * float64((np+63)/64)
		}
		if got := int64(core.Cycles()); got != int64(want) {
			t.Fatalf("trial %d: billed %d cycles for %d candidates, want %d", trial, got, candidates, int64(want))
		}
		if out.Count() != hits {
			t.Fatalf("trial %d: %d hits returned, %d bits set", trial, hits, out.Count())
		}
		for i := 0; i < np; i++ {
			cand := in == nil || in.Test(i)
			b := JoinFilterBit(hv[i], partBits, logBits)
			set := words[b>>6]>>(b&63)&1 == 1
			if out.Test(i) != (cand && set) {
				t.Fatalf("trial %d (%s mask): row %d passes = %v, candidate %v, bit set %v", trial, mode, i, out.Test(i), cand, set)
			}
			if cand && held[keyTuple(probe, i)] && !out.Test(i) {
				t.Fatalf("trial %d: row %d with build key %s dropped", trial, i, keyTuple(probe, i))
			}
		}
	}
}

// TestJoinFilterFalsePositiveRate: n distinct build keys in an m-bit filter
// pass a probe key the build side does not hold at about 1 - e^(-n/m), the
// one-hash false-positive rate the arming rule assumes, for one and two keys
// at widths W2 to W8 and for build sides split into 1 to 32 partitions.
func TestJoinFilterFalsePositiveRate(t *testing.T) {
	const np = 40000
	for _, c := range []struct {
		widths   []coltypes.Width
		logBits  uint
		partBits uint
		n        int
	}{
		{[]coltypes.Width{coltypes.W2}, 12, 0, 1024},
		{[]coltypes.Width{coltypes.W2}, 14, 3, 16000},
		{[]coltypes.Width{coltypes.W4}, 12, 5, 4096},
		{[]coltypes.Width{coltypes.W8}, 14, 5, 2048},
		{[]coltypes.Width{coltypes.W8}, 16, 2, 65536},
		{[]coltypes.Width{coltypes.W4, coltypes.W2}, 13, 4, 8192},
		{[]coltypes.Width{coltypes.W8, coltypes.W8}, 15, 0, 4096},
	} {
		// Build keys are even in the first column, probe keys odd, so no
		// probe row matches.
		build, probe := make([]coltypes.Data, len(c.widths)), make([]coltypes.Data, len(c.widths))
		for k, w := range c.widths {
			bv, pv := make([]int64, c.n), make([]int64, np)
			for i := range bv {
				bv[i] = int64(2*i) % (w.MaxInt() + 1)
				if k > 0 {
					bv[i] = int64(i % 11)
				}
			}
			for i := range pv {
				pv[i] = int64(2*i+1) % (w.MaxInt() + 1)
				if k > 0 {
					pv[i] = int64(i % 11)
				}
			}
			build[k], probe[k] = coltypes.FromInt64s(w, bv), coltypes.FromInt64s(w, pv)
		}
		words := fillFilter(t, build, c.partBits, c.logBits)
		out := bits.NewVector(np)
		rate := float64(FilterJoinBV(nil, probe, words, c.partBits, c.logBits, nil, out)) / np
		want := 1 - math.Exp(-float64(c.n)/float64(uint64(1)<<c.logBits))
		if math.Abs(rate-want) > 0.03 {
			t.Errorf("%v keys, %d build rows in 2^%d bits over %d partitions: false-positive rate %.4f, want %.4f ± 0.03",
				c.widths, c.n, c.logBits, 1<<c.partBits, rate, want)
		}
	}
}
