package mem

import (
	"testing"
	"unsafe"

	"rapid/internal/coltypes"
)

// TestTilePoolTakeAndReset: takes are laid end to end in the region, and
// after Reset the next take reuses the same storage.
func TestTilePoolTakeAndReset(t *testing.T) {
	p := NewTilePool()
	a := p.I64(100)
	if len(a) != 100 || cap(a) != 100 {
		t.Fatalf("len %d cap %d, want 100", len(a), cap(a))
	}
	for i := range a {
		a[i] = int64(i) + 1
	}
	b := p.I64(50)
	if &b[0] != &p.region[100] {
		t.Fatal("second take does not follow the first in the region")
	}
	if p.at.dataBytes != 8*150 {
		t.Fatalf("dataBytes = %d, want %d", p.at.dataBytes, 8*150)
	}
	p.Reset()
	if p.at.dataBytes != 0 {
		t.Fatalf("dataBytes after Reset = %d", p.at.dataBytes)
	}
	c := p.I64(150)
	if &c[0] != &a[0] {
		t.Fatal("take after Reset did not reuse the region")
	}
}

func TestTilePoolMarkReleaseResetTile(t *testing.T) {
	p := NewTilePool()
	unit := p.I64(10) // unit-lifetime take below the mark
	unit[0] = 42
	p.Mark()
	p.I64(20)
	p.U32(30)
	inner := p.at.dataBytes
	if inner != 8*10+8*20+4*30 {
		t.Fatalf("dataBytes = %d", inner)
	}
	p.ResetTile() // rolls back to the mark, keeping the unit take
	if p.at.dataBytes != 8*10 {
		t.Fatalf("after ResetTile dataBytes = %d, want %d", p.at.dataBytes, 8*10)
	}
	if unit[0] != 42 {
		t.Fatal("unit-lifetime buffer clobbered by ResetTile")
	}
	p.I64(5)
	p.Release() // closes the mark scope
	if p.at.dataBytes != 8*10 {
		t.Fatalf("after Release dataBytes = %d, want %d", p.at.dataBytes, 8*10)
	}
	// Without marks, ResetTile behaves like Reset.
	p.ResetTile()
	if p.at.dataBytes != 0 {
		t.Fatalf("markless ResetTile dataBytes = %d", p.at.dataBytes)
	}
}

func TestTilePoolReleaseWithoutMarkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release without Mark did not panic")
		}
	}()
	NewTilePool().Release()
}

func TestTilePoolSteadyStateNoGrows(t *testing.T) {
	p := NewTilePool()
	warm := func() {
		p.Reset()
		p.I64(256)
		p.U32(256)
		p.BV(256)
		p.Data(coltypes.W4, 256)
		p.Data(coltypes.W8, 256)
		p.Headers(4)
		p.RowHeaders(4)
	}
	warm()
	base := p.Grows()
	for i := 0; i < 100; i++ {
		warm()
	}
	if g := p.Grows(); g != base {
		t.Fatalf("steady-state takes grew the pool: %d new grows", g-base)
	}
}

// TestTilePoolDataSlabReuse: a Data take of any width is a view over the
// region, counted at the bytes it asked for, and a take after Reset reuses the
// same storage.
func TestTilePoolDataSlabReuse(t *testing.T) {
	p := NewTilePool()
	d := p.Data(coltypes.W8, 256)
	if d.Len() != 256 || d.Width() != coltypes.W8 {
		t.Fatalf("Data(W8, 256) = len %d width %d", d.Len(), d.Width())
	}
	p.Reset()
	d2 := p.Data(coltypes.W8, 256)
	if &d2.I64()[0] != &d.I64()[0] {
		t.Fatal("Data take after Reset did not reuse the region")
	}
	// Narrower widths round up to whole words in the region but count the
	// bytes asked for.
	d3 := p.Data(coltypes.W2, 5)
	if d3.Len() != 5 || d3.Width() != coltypes.W2 {
		t.Fatalf("Data(W2, 5) = len %d width %d", d3.Len(), d3.Width())
	}
	if &d3.I16()[0] != (*int16)(unsafe.Pointer(&p.region[256])) {
		t.Fatal("W2 take is not laid over the region after the W8 one")
	}
	if p.at.region != 256+2 {
		t.Fatalf("region offset = %d words, want %d", p.at.region, 256+2)
	}
	if got := p.at.dataBytes; got != 256*8+5*2 {
		t.Fatalf("dataBytes = %d, want %d", got, 256*8+5*2)
	}
}

// TestTilePoolHeadersAndBVAreCleared: the pointerful header takes and the
// bit-vectors come back cleared over storage an earlier take dirtied.
func TestTilePoolHeadersAndBVAreCleared(t *testing.T) {
	p := NewTilePool()
	h, r := p.Headers(8), p.RowHeaders(8)
	for i := range h {
		h[i], r[i] = coltypes.Of([]int64{1}), []int64{1}
	}
	fill := p.I64(64)
	for i := range fill {
		fill[i] = -1
	}
	p.Reset()
	h, r = p.Headers(8), p.RowHeaders(8)
	for i := range h {
		if h[i].Len() != 0 || r[i] != nil {
			t.Fatalf("header take %d not cleared", i)
		}
	}
	v := p.BV(64 * 64)
	if v.Count() != 0 || &v.Words()[0] != (*uint64)(unsafe.Pointer(&fill[0])) {
		t.Fatalf("BV over the dirtied region: count %d", v.Count())
	}
}

// TestTilePoolDataTakesDoNotAllocate: a Data take is three words over arena
// storage — full or short, at any width, it never reaches the heap once the
// arenas have grown.
func TestTilePoolDataTakesDoNotAllocate(t *testing.T) {
	p := NewTilePool()
	var sink coltypes.Data
	takes := func() {
		p.Reset()
		for _, w := range []coltypes.Width{coltypes.W1, coltypes.W2, coltypes.W4, coltypes.W8} {
			sink = p.Data(w, 256)
			sink = p.Data(w, 37)
		}
	}
	takes()
	if allocs := testing.AllocsPerRun(100, takes); allocs != 0 {
		t.Fatalf("steady-state Data takes allocate %.0f times per round, want 0", allocs)
	}
	_ = sink
}

func TestTilePoolHighWater(t *testing.T) {
	p := NewTilePool()
	p.I64(100)
	p.Reset()
	p.I64(10)
	if p.HighWater() != 800 {
		t.Fatalf("HighWater = %d, want 800", p.HighWater())
	}
	p.MarkHighWater()
	if p.HighWater() != 80 {
		t.Fatalf("HighWater after MarkHighWater = %d, want 80", p.HighWater())
	}
	p.I64(20)
	if p.HighWater() != 240 {
		t.Fatalf("HighWater = %d, want 240", p.HighWater())
	}
}

func TestTilePoolBVReuse(t *testing.T) {
	p := NewTilePool()
	v := p.BV(100)
	v.Set(7)
	v2 := p.BV(100)
	if v2 == v {
		t.Fatal("second BV take returned the same vector")
	}
	p.Reset()
	v3 := p.BV(200)
	if v3 != v {
		t.Fatal("recycled BV not reused")
	}
	if v3.Len() != 200 || v3.Count() != 0 {
		t.Fatalf("recycled BV len %d count %d", v3.Len(), v3.Count())
	}
}

func TestTilePoolRetainedBytesAndTrimTo(t *testing.T) {
	p := NewTilePool()
	if got := p.RetainedBytes(); got != 0 {
		t.Fatalf("fresh pool retains %d bytes, want 0", got)
	}
	p.I64(1024)               // 8 KiB
	p.Data(coltypes.W4, 1024) // 4 KiB
	p.BV(1 << 12)             // 512 B of bit-vector words
	p.Reset()
	retained := p.RetainedBytes()
	if retained < 12*1024 {
		t.Fatalf("after takes, RetainedBytes = %d, want >= 12 KiB", retained)
	}

	// Under the bound: TrimTo must keep the arenas (pooling stays effective).
	p.TrimTo(retained)
	if got := p.RetainedBytes(); got != retained {
		t.Fatalf("TrimTo under bound dropped storage: %d -> %d", retained, got)
	}
	grows := p.Grows()
	p.I64(1024)
	if p.Grows() != grows {
		t.Fatalf("take after no-op TrimTo grew the pool: arenas were dropped")
	}
	p.Reset()

	// Over the bound: everything is dropped, but the grows counter survives
	// (it feeds a monotonic metric).
	p.TrimTo(retained - 1)
	if got := p.RetainedBytes(); got != 0 {
		t.Fatalf("TrimTo over bound retained %d bytes, want 0", got)
	}
	if p.Grows() != grows {
		t.Fatalf("TrimTo reset the grows counter: %d -> %d", grows, p.Grows())
	}

	// The trimmed pool must still be usable: arenas regrow lazily.
	if s := p.I64(16); len(s) != 16 {
		t.Fatalf("take after trim returned %d elems, want 16", len(s))
	}
	if p.Grows() == grows {
		t.Fatalf("take after trim should have regrown an arena")
	}
}

// TestTilePoolHeaderSizes keeps the element sizes RetainedBytes assumes for
// the two header arenas equal to the real ones.
func TestTilePoolHeaderSizes(t *testing.T) {
	if got := unsafe.Sizeof(coltypes.Data{}); got != dataHeaderBytes {
		t.Errorf("unsafe.Sizeof(coltypes.Data{}) = %d, dataHeaderBytes = %d", got, dataHeaderBytes)
	}
	if got := unsafe.Sizeof([]int64(nil)); got != sliceHeaderBytes {
		t.Errorf("unsafe.Sizeof([]int64) = %d, sliceHeaderBytes = %d", got, sliceHeaderBytes)
	}
}

// TestTilePoolTrimToCountsHeaderArenas: a pool that grew nothing but header
// arenas is still over a bound smaller than those arenas, and TrimTo drops
// them.
func TestTilePoolTrimToCountsHeaderArenas(t *testing.T) {
	p := NewTilePool()
	const n = 1 << 14
	p.Headers(n)
	p.RowHeaders(n)
	p.Reset()
	retained := p.RetainedBytes()
	if want := n * (dataHeaderBytes + sliceHeaderBytes); retained < want {
		t.Fatalf("RetainedBytes = %d with %d-element header arenas, want >= %d", retained, n, want)
	}
	grows := p.Grows()
	p.TrimTo(retained - 1)
	if got := p.RetainedBytes(); got != 0 {
		t.Fatalf("TrimTo under the header arenas' size retained %d bytes, want 0", got)
	}
	p.Headers(1)
	if p.Grows() == grows {
		t.Fatal("header arena survived TrimTo")
	}
}
