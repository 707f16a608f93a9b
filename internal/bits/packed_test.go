package bits

import (
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

// The packed hash-join arrays are billed, not built: these check the
// footprint formula at the widths where packing is easiest to get wrong.

func TestPackedArrayCrossWordBoundary(t *testing.T) {
	// Width 13 makes elements straddle 64-bit words: 64 elements are 832
	// bits, exactly 13 words, with no padding per element.
	if got := PackedSizeBytes(64, 13); got != 13*8 {
		t.Fatalf("PackedSizeBytes(64,13) = %d, want %d", got, 13*8)
	}
	// One bit past a word boundary costs a whole extra word.
	if got := PackedSizeBytes(5, 13); got != 2*8 {
		t.Fatalf("PackedSizeBytes(5,13) = %d, want %d", got, 2*8)
	}
}

func TestPackedArrayWidth64(t *testing.T) {
	// At 64 bits packing gains nothing: one word per element.
	if got := PackedSizeBytes(5, 64); got != 5*8 {
		t.Fatalf("PackedSizeBytes(5,64) = %d", got)
	}
}

func TestPackedArrayZeroWidth(t *testing.T) {
	// A one-row partition needs log2 1 = 0 bits per element: its arrays take
	// no space at all, and neither does an empty one.
	if WidthFor(1) != 0 || PackedSizeBytes(1000, WidthFor(1)) != 0 || PackedSizeBytes(0, 12) != 0 {
		t.Fatal("zero-width or empty packed array takes space")
	}
}

func TestPackedSizeBytes(t *testing.T) {
	// The paper's point: 4096 entries at 12 bits = 6 KiB, vs 32 KiB for
	// 64-bit pointers — the compact layout is what fits DMEM.
	if got := PackedSizeBytes(4096, 12); got != 6144 {
		t.Fatalf("PackedSizeBytes(4096,12) = %d, want 6144", got)
	}
}

// Property: the footprint is the element bits rounded up to whole words —
// never less than the bits it must hold, never a word more than it needs.
func TestPackedArrayQuick(t *testing.T) {
	f := func(widthRaw uint8, nRaw uint16) bool {
		width := uint(widthRaw) % 65
		n := int(nRaw)
		got := PackedSizeBytes(n, width)
		need := n * int(width)
		return got%8 == 0 && 8*got >= need && 8*got < need+64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
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
