package hashcrc

import (
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := Hash64(Seed, 12345)
	b := Hash64(Seed, 12345)
	if a != b {
		t.Fatal("Hash64 not deterministic")
	}
	if Hash64(Seed, 12345) == Hash64(Seed, 12346) {
		t.Fatal("adjacent keys should differ (with overwhelming probability)")
	}
}

func TestChaining(t *testing.T) {
	// Multi-key hashing chains accumulators; order must matter.
	ab := Hash64(Hash64(Seed, 1), 2)
	ba := Hash64(Hash64(Seed, 2), 1)
	if ab == ba {
		t.Fatal("chained hash should be order sensitive")
	}
}

// The radix partitioning stage uses the low bits of the finalized hash; a
// heavily skewed low-bit distribution would break partition balance. Check
// uniformity loosely over sequential keys (the common case for synthetic
// join keys).
func TestLowBitUniformity(t *testing.T) {
	const parts = 32
	const n = 32000
	var counts [parts]int
	for i := 0; i < n; i++ {
		h := Finalize(Hash64(Seed, uint64(i)))
		counts[h%parts]++
	}
	want := n / parts
	for p, c := range counts {
		if c < want*7/10 || c > want*13/10 {
			t.Fatalf("partition %d has %d of %d keys (want ~%d): skewed low bits", p, c, n, want)
		}
	}
}

func TestFinalizeInjectiveOnSmallDomain(t *testing.T) {
	seen := map[uint32]uint32{}
	for i := uint32(0); i < 10000; i++ {
		f := Finalize(i)
		if prev, ok := seen[f]; ok {
			t.Fatalf("Finalize collision: %d and %d -> %d", prev, i, f)
		}
		seen[f] = i
	}
}

func TestQuickDeterminism(t *testing.T) {
	f := func(acc uint32, v uint64) bool {
		return Hash64(acc, v) == Hash64(acc, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func le(v uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

// The inline slicing tables must be bit-identical to the standard library's
// CRC32-C: hash vectors computed by the DMS model, the software kernels and
// any stored signature all assume the same function.
func TestMatchesStdlibCRC32C(t *testing.T) {
	check := func(acc uint32, v uint64) {
		t.Helper()
		if got, want := Hash64(acc, v), crc32.Update(acc, castagnoli, le(v, 8)); got != want {
			t.Fatalf("Hash64(%#x, %#x) = %#x, want %#x", acc, v, got, want)
		}
	}
	// Width boundaries of every physical column width, both signs.
	for _, acc := range []uint32{0, 1, 0x80000000, 0xffffffff} {
		for _, bits := range []uint{0, 7, 8, 15, 16, 31, 32, 63} {
			for _, d := range []int64{-1, 0, 1} {
				v := int64(1)<<bits + d
				check(acc, uint64(v))
				check(acc, uint64(-v))
			}
		}
	}
	rng := rand.New(rand.NewSource(2018))
	for i := 0; i < 1_000_000; i++ {
		check(rng.Uint32(), rng.Uint64())
	}
}

var hashSink uint32

func BenchmarkHash64(b *testing.B) {
	acc := Seed
	for i := 0; i < b.N; i++ {
		acc = Hash64(acc, uint64(i))
	}
	hashSink = acc
}
