package primitives

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rapid/internal/bits"
	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/plan"
)

var (
	allWidths = []coltypes.Width{coltypes.W1, coltypes.W2, coltypes.W4, coltypes.W8}
	allOps    = []plan.CmpOp{plan.EQ, plan.NE, plan.LT, plan.LE, plan.GT, plan.GE}
)

// wordCase is one input of the word-kernel/per-row-kernel comparison: a
// column, a second column of the same width for ColCol, a code bitmap for
// InSet, a constant (also Between's lower bound), Between's upper bound and
// the input mask (nil = unmasked).
type wordCase struct {
	d, b   coltypes.Data
	set    *bits.Vector
	op     plan.CmpOp
	c, hi  int64
	inMask *bits.Vector
}

// garbageVector is an n-bit vector whose every word, tail bits included,
// holds garbage: a kernel that leaves any bit of it unwritten shows.
func garbageVector(n int) *bits.Vector {
	v := bits.NewVector(n)
	for i, w := range v.Words() {
		v.Words()[i] = w ^ 0xA5C3_5A3C_96E1_7B2D ^ uint64(i)
	}
	return v
}

// refRIDs lists the set bits of v one Test at a time.
func refRIDs(v *bits.Vector) []uint32 {
	var rids []uint32
	for i := 0; i < v.Len(); i++ {
		if v.Test(i) {
			rids = append(rids, uint32(i))
		}
	}
	return rids
}

// checkWordKernels runs every word kernel and its per-row reference on wc
// and fails on any difference in output bits, hits or billed cycles. The
// word kernels write into garbage; the references into a cleared vector.
func checkWordKernels(t testing.TB, cores [2]*dpu.Core, wc wordCase) {
	t.Helper()
	n := wc.d.Len()
	type bvKernel func(core *dpu.Core, out *bits.Vector) int
	pair := func(name string, word, row bvKernel) {
		t.Helper()
		cores[0].Reset()
		cores[1].Reset()
		got, want := garbageVector(n), bits.NewVector(n)
		gh, wh := word(cores[0], got), row(cores[1], want)
		if !slices.Equal(got.Words(), want.Words()) || gh != wh || cores[0].Cycles() != cores[1].Cycles() {
			t.Fatalf("%s w%d %v c=%d hi=%d n=%d masked=%v: hits %d/%d cycles %d/%d\n got %s\nwant %s",
				name, wc.d.Width(), wc.op, wc.c, wc.hi, n, wc.inMask != nil, gh, wh,
				cores[0].Cycles(), cores[1].Cycles(), got, want)
		}
	}
	in := wc.inMask
	if in == nil {
		pair("ConstBV", func(core *dpu.Core, out *bits.Vector) int {
			return FilterConstBV(core, wc.d, wc.op, wc.c, out)
		}, func(core *dpu.Core, out *bits.Vector) int {
			return refFilterConstBV(core, wc.d, wc.op, wc.c, out)
		})
	} else {
		pair("ConstBVMasked", func(core *dpu.Core, out *bits.Vector) int {
			return FilterConstBVMasked(core, wc.d, wc.op, wc.c, in, out)
		}, func(core *dpu.Core, out *bits.Vector) int {
			return refFilterConstBVMasked(core, wc.d, wc.op, wc.c, in, out)
		})
	}
	pair("BetweenBV", func(core *dpu.Core, out *bits.Vector) int {
		return FilterBetweenBV(core, wc.d, wc.c, wc.hi, in, out)
	}, func(core *dpu.Core, out *bits.Vector) int {
		return refFilterBetweenBV(core, wc.d, wc.c, wc.hi, in, out)
	})
	pair("ColColBV", func(core *dpu.Core, out *bits.Vector) int {
		return FilterColColBV(core, wc.d, wc.b, wc.op, in, out)
	}, func(core *dpu.Core, out *bits.Vector) int {
		return refFilterColColBV(core, wc.d, wc.b, wc.op, in, out)
	})
	pair("InSetBV", func(core *dpu.Core, out *bits.Vector) int {
		return FilterInSetBV(core, wc.d, wc.set, in, out)
	}, func(core *dpu.Core, out *bits.Vector) int {
		return refFilterInSetBV(core, wc.d, wc.set, in, out)
	})

	var inRIDs []uint32
	if in != nil {
		inRIDs = refRIDs(in)
		if inRIDs == nil {
			inRIDs = []uint32{} // an empty candidate list, not "all rows"
		}
	}
	cores[0].Reset()
	cores[1].Reset()
	got := FilterConstRIDs(cores[0], wc.d, wc.op, wc.c, inRIDs, nil)
	want := refFilterConstRIDs(cores[1], wc.d, wc.op, wc.c, inRIDs, nil)
	if !slices.Equal(got, want) || cores[0].Cycles() != cores[1].Cycles() {
		t.Fatalf("ConstRIDs w%d %v c=%d n=%d masked=%v: cycles %d/%d\n got %v\nwant %v",
			wc.d.Width(), wc.op, wc.c, n, in != nil, cores[0].Cycles(), cores[1].Cycles(), got, want)
	}
}

// maskModes are the input masks of the comparison: none (the dense
// kernels), sparse, dense, all-zero and all-one.
var maskModes = []string{"none", "sparse", "dense", "zero", "ones"}

func testMask(mode string, n int, rng *rand.Rand) *bits.Vector {
	if mode == "none" {
		return nil
	}
	m := bits.NewVector(n)
	switch mode {
	case "ones":
		m.SetAll()
	case "sparse", "dense":
		p := map[string]float64{"sparse": 0.03, "dense": 0.9}[mode]
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				m.Set(i)
			}
		}
	}
	return m
}

// testValue draws a column value at width w: the domain's ends, small
// values around the test constants and the code sets' sizes, or anything in
// the domain.
func testValue(w coltypes.Width, rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return []int64{w.MinInt(), w.MaxInt(), -1, 0}[rng.Intn(4)]
	case 1, 2:
		return int64(rng.Intn(81) - 8)
	}
	shift := 64 - 8*uint(w)
	return int64(rng.Uint64()) << shift >> shift
}

func testColumn(w coltypes.Width, n int, rng *rand.Rand) coltypes.Data {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = testValue(w, rng)
	}
	return coltypes.FromInt64s(w, vals)
}

// testSet is a code bitmap of n bits, about a third of them set.
func testSet(n int, rng *rand.Rand) *bits.Vector {
	s := bits.NewVector(n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			s.Set(i)
		}
	}
	return s
}

// TestWordKernelsMatchPerRowReference checks every word kernel against the
// per-row kernel it replaced (filter_ref_test.go) over every width,
// operator, constants inside and outside the width's domain, row counts
// around the word size and the tile size, and every input mask: equal bits,
// equal hits and equal billed cycles.
func TestWordKernelsMatchPerRowReference(t *testing.T) {
	soc := dpu.MustNew(dpu.DefaultConfig())
	cores := [2]*dpu.Core{soc.Core(0), soc.Core(1)}
	rng := rand.New(rand.NewSource(37))
	for _, w := range allWidths {
		consts := []int64{0, 3, -5, w.MinInt(), w.MaxInt()}
		if w != coltypes.W8 {
			consts = append(consts, w.MinInt()-1, w.MaxInt()+1, 1<<40, -1<<40)
		}
		for _, n := range []int{1, 63, 64, 65, 4095, 4096} {
			d, b := testColumn(w, n, rng), testColumn(w, n, rng)
			sets := []*bits.Vector{testSet(0, rng), testSet(5, rng), testSet(64, rng), testSet(200, rng)}
			for _, mode := range maskModes {
				mask := testMask(mode, n, rng)
				for _, op := range allOps {
					for i, c := range consts {
						checkWordKernels(t, cores, wordCase{
							d: d, b: b, set: sets[i%len(sets)], op: op,
							c: c, hi: consts[(i+int(op))%len(consts)], inMask: mask,
						})
					}
				}
			}
		}
	}
}

// FuzzFilterWords compares the word kernels with the per-row reference on
// inputs the fuzzer chooses: the width, operator, constants, row count, the
// mask mode and, from data, the column values, the mask and the code set.
func FuzzFilterWords(f *testing.F) {
	f.Add(uint8(0), uint8(2), int64(3), int64(9), uint16(65), uint8(1), []byte{1, 200, 3, 7, 128, 0, 255})
	f.Add(uint8(3), uint8(5), int64(-1), int64(1<<40), uint16(4096), uint8(2), []byte{0xff, 0x7f, 0x80, 0})
	f.Add(uint8(1), uint8(1), int64(1<<20), int64(-4), uint16(63), uint8(0), []byte{9})
	soc := dpu.MustNew(dpu.DefaultConfig())
	cores := [2]*dpu.Core{soc.Core(0), soc.Core(1)}
	f.Fuzz(func(t *testing.T, width, op uint8, c, hi int64, rows uint16, maskMode uint8, data []byte) {
		if len(data) == 0 {
			data = []byte{0}
		}
		w := allWidths[int(width)%len(allWidths)]
		n := int(rows)%4096 + 1
		// The i-th value is w bytes of data read cyclically, sign-extended.
		value := func(i int) int64 {
			var buf [8]byte
			for k := 0; k < int(w); k++ {
				buf[k] = data[(i*int(w)+k)%len(data)]
			}
			u := binary.LittleEndian.Uint64(buf[:])
			return int64(u<<(64-8*uint(w))) >> (64 - 8*uint(w))
		}
		dv, bv := make([]int64, n), make([]int64, n)
		for i := range dv {
			dv[i], bv[i] = value(i), value(i+n)
		}
		bit := func(i int) bool { return data[(i*7+3)%len(data)]&1 == 1 }
		var mask *bits.Vector
		switch mode := maskModes[int(maskMode)%len(maskModes)]; mode {
		case "none":
		case "sparse", "dense":
			mask = bits.NewVector(n)
			for i := 0; i < n; i++ {
				if mode == "sparse" && bit(i) && i%17 == 0 || mode == "dense" && (bit(i) || i%3 != 0) {
					mask.Set(i)
				}
			}
		default:
			mask = testMask(mode, n, nil)
		}
		set := bits.NewVector(int(uint64(c) % 300))
		for i := 0; i < set.Len(); i++ {
			if bit(i + n) {
				set.Set(i)
			}
		}
		checkWordKernels(t, cores, wordCase{
			d: coltypes.FromInt64s(w, dv), b: coltypes.FromInt64s(w, bv), set: set,
			op: allOps[int(op)%len(allOps)], c: c, hi: hi, inMask: mask,
		})
	})
}

var filterSink int

// BenchmarkFilterKernels times one 4,096-row tile of `col op c` through the
// word kernel and its per-row reference, at 1 %, 50 % and 99 % selectivity,
// dense and under a random half-density input mask. The word kernel's time
// is flat in selectivity; the per-row kernel's branches are not.
func BenchmarkFilterKernels(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(1))
	mask := bits.NewVector(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			mask.Set(i)
		}
	}
	for _, w := range allWidths {
		for _, op := range []plan.CmpOp{plan.LT, plan.EQ} {
			for _, sel := range []int{1, 50, 99} {
				// Values in [0, 100): `< sel` qualifies sel % of them; for EQ,
				// sel % of them are 7 and the rest anything else.
				vals := make([]int64, n)
				for i := range vals {
					vals[i] = int64(rng.Intn(100))
					if op == plan.EQ {
						vals[i] = 7
						if rng.Intn(100) >= sel {
							vals[i] = 8 + int64(rng.Intn(90))
						}
					}
				}
				d := coltypes.FromInt64s(w, vals)
				c := int64(sel)
				if op == plan.EQ {
					c = 7
				}
				out := bits.NewVector(n)
				for _, masked := range []bool{false, true} {
					shape := "dense"
					word := func() int { return FilterConstBV(nil, d, op, c, out) }
					row := func() int { out.ClearAll(); return refFilterConstBV(nil, d, op, c, out) }
					if masked {
						shape = "masked"
						word = func() int { return FilterConstBVMasked(nil, d, op, c, mask, out) }
						row = func() int { out.ClearAll(); return refFilterConstBVMasked(nil, d, op, c, mask, out) }
					}
					opName := map[plan.CmpOp]string{plan.LT: "LT", plan.EQ: "EQ"}[op]
					for k, kernel := range []func() int{word, row} {
						name := []string{"word", "row"}[k]
						b.Run(fmt.Sprintf("W%d/%s/sel=%d/%s/%s", w, opName, sel, shape, name), func(b *testing.B) {
							for i := 0; i < b.N; i++ {
								filterSink = kernel()
							}
						})
					}
				}
			}
		}
	}
}
