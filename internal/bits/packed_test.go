package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWidthFor(t *testing.T) {
	cases := []struct {
		n    int
		want uint
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{256, 8}, {257, 9}, {1 << 20, 20},
	}
	for _, c := range cases {
		if got := WidthFor(c.n); got != c.want {
			t.Errorf("WidthFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPackedArrayBasic(t *testing.T) {
	p := NewPackedArray(100, 7)
	if p.Len() != 100 {
		t.Fatalf("Len = %d", p.Len())
	}
	if p.MaxValue() != 127 {
		t.Fatalf("MaxValue = %d", p.MaxValue())
	}
	for i := 0; i < 100; i++ {
		p.Set(i, uint64(i%128))
	}
	for i := 0; i < 100; i++ {
		if got := p.Get(i); got != uint64(i%128) {
			t.Fatalf("Get(%d) = %d, want %d", i, got, i%128)
		}
	}
}

func TestPackedArrayCrossWordBoundary(t *testing.T) {
	// width 13 guarantees elements straddling 64-bit word boundaries.
	p := NewPackedArray(64, 13)
	vals := make([]uint64, 64)
	rng := rand.New(rand.NewSource(42))
	for i := range vals {
		vals[i] = uint64(rng.Intn(1 << 13))
		p.Set(i, vals[i])
	}
	for i, want := range vals {
		if got := p.Get(i); got != want {
			t.Fatalf("Get(%d) = %d, want %d", i, got, want)
		}
	}
	// Overwrite in reverse order to check neighbours are not clobbered.
	for i := 63; i >= 0; i-- {
		vals[i] = uint64(rng.Intn(1 << 13))
		p.Set(i, vals[i])
	}
	for i, want := range vals {
		if got := p.Get(i); got != want {
			t.Fatalf("after overwrite Get(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestPackedArrayWidth64(t *testing.T) {
	p := NewPackedArray(5, 64)
	p.Set(3, ^uint64(0))
	if got := p.Get(3); got != ^uint64(0) {
		t.Fatalf("Get = %x", got)
	}
	if p.Get(2) != 0 || p.Get(4) != 0 {
		t.Fatal("neighbours clobbered")
	}
}

func TestPackedArrayZeroWidth(t *testing.T) {
	p := NewPackedArray(10, 0)
	p.Set(5, 0)
	if p.Get(5) != 0 {
		t.Fatal("zero-width Get != 0")
	}
	mustPanic(t, func() { p.Set(5, 1) })
}

func TestPackedArrayFillReset(t *testing.T) {
	p := NewPackedArray(33, 5)
	p.Fill(31)
	for i := 0; i < 33; i++ {
		if p.Get(i) != 31 {
			t.Fatalf("Fill: Get(%d) = %d", i, p.Get(i))
		}
	}
}

func TestPackedArrayPanics(t *testing.T) {
	p := NewPackedArray(4, 3)
	mustPanic(t, func() { p.Get(4) })
	mustPanic(t, func() { p.Set(-1, 0) })
	mustPanic(t, func() { p.Set(0, 8) }) // 8 needs 4 bits
	mustPanic(t, func() { NewPackedArray(1, 65) })
	mustPanic(t, func() { NewPackedArray(-1, 3) })
}

func TestPackedSizeBytes(t *testing.T) {
	// The paper's point: 4096 entries at 12 bits = 6 KiB, vs 32 KiB for
	// 64-bit pointers — the compact layout is what fits DMEM.
	if got := PackedSizeBytes(4096, 12); got != 6144 {
		t.Fatalf("PackedSizeBytes(4096,12) = %d, want 6144", got)
	}
	p := NewPackedArray(4096, 12)
	if len(p.words)*8 != 6144 {
		t.Fatalf("footprint = %d", len(p.words)*8)
	}
}

// Property: random Set/Get sequences behave like a plain []uint64 model.
func TestPackedArrayQuick(t *testing.T) {
	f := func(seed int64, widthRaw uint8, nRaw uint8) bool {
		width := uint(widthRaw)%64 + 1
		n := int(nRaw)%200 + 1
		rng := rand.New(rand.NewSource(seed))
		p := NewPackedArray(n, width)
		model := make([]uint64, n)
		for op := 0; op < 300; op++ {
			i := rng.Intn(n)
			if rng.Intn(2) == 0 {
				v := rng.Uint64()
				if width < 64 {
					v &= (1 << width) - 1
				}
				p.Set(i, v)
				model[i] = v
			} else if p.Get(i) != model[i] {
				return false
			}
		}
		for i := range model {
			if p.Get(i) != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestChooseRIDs(t *testing.T) {
	// Exactly the 1/32 rule of §5.4.
	if !ChooseRIDs(10, 1000) {
		t.Fatal("10/1000 should use RIDs")
	}
	if ChooseRIDs(100, 1000) {
		t.Fatal("100/1000 should use bit-vector")
	}
	if ChooseRIDs(0, 0) {
		t.Fatal("empty input should not use RIDs")
	}
	// Boundary: hits*32 == n chooses bit-vector (not strictly less).
	if ChooseRIDs(32, 1024) {
		t.Fatal("boundary should choose bit-vector")
	}
	if !ChooseRIDs(31, 1024) {
		t.Fatal("just below boundary should choose RIDs")
	}
}
