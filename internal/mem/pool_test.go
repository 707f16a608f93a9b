package mem

import (
	"testing"
	"unsafe"

	"rapid/internal/coltypes"
)

func TestTilePoolTakeAndReset(t *testing.T) {
	p := NewTilePool()
	a := p.I64(100)
	if len(a) != 100 {
		t.Fatalf("len = %d, want 100", len(a))
	}
	for i := range a {
		a[i] = int64(i) + 1
	}
	b := p.I64(50)
	for i := range b {
		if b[i] != 0 {
			t.Fatalf("second take not zeroed at %d: %d", i, b[i])
		}
		b[i] = -7
	}
	if p.dataBytes != 8*150 {
		t.Fatalf("dataBytes = %d, want %d", p.dataBytes, 8*150)
	}
	p.Reset()
	if p.dataBytes != 0 {
		t.Fatalf("dataBytes after Reset = %d", p.dataBytes)
	}
	// Recycled takes are zeroed even though the backing memory was dirty.
	c := p.I64(150)
	for i := range c {
		if c[i] != 0 {
			t.Fatalf("recycled take not zeroed at %d: %d", i, c[i])
		}
	}
}

func TestTilePoolMarkReleaseResetTile(t *testing.T) {
	p := NewTilePool()
	unit := p.I64(10) // unit-lifetime take below the mark
	unit[0] = 42
	p.Mark()
	p.I64(20)
	p.U32(30)
	inner := p.dataBytes
	if inner != 8*10+8*20+4*30 {
		t.Fatalf("dataBytes = %d", inner)
	}
	p.ResetTile() // rolls back to the mark, keeping the unit take
	if p.dataBytes != 8*10 {
		t.Fatalf("after ResetTile dataBytes = %d, want %d", p.dataBytes, 8*10)
	}
	if unit[0] != 42 {
		t.Fatal("unit-lifetime buffer clobbered by ResetTile")
	}
	p.I64(5)
	p.Release() // closes the mark scope
	if p.dataBytes != 8*10 {
		t.Fatalf("after Release dataBytes = %d, want %d", p.dataBytes, 8*10)
	}
	// Without marks, ResetTile behaves like Reset.
	p.ResetTile()
	if p.dataBytes != 0 {
		t.Fatalf("markless ResetTile dataBytes = %d", p.dataBytes)
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
		p.I32(256)
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

func TestTilePoolDataSlabReuse(t *testing.T) {
	p := NewTilePool()
	d := p.Data(coltypes.W8, 256)
	if d.Len() != 256 || d.Width() != coltypes.W8 {
		t.Fatalf("Data(W8, 256) = len %d width %d", d.Len(), d.Width())
	}
	d.Set(3, 99)
	p.Reset()
	d2 := p.Data(coltypes.W8, 256)
	if &d2.I64()[0] != &d.I64()[0] {
		t.Fatal("Data take after Reset did not reuse the arena storage")
	}
	if d2.Get(3) != 0 {
		t.Fatal("recycled Data buffer not zeroed")
	}
	// Data is a view over the typed arena of its width: a short take bumps
	// the same arena the I64 takes use, and comes back zeroed.
	d3 := p.Data(coltypes.W8, 100)
	if d3.Len() != 100 {
		t.Fatalf("short take len = %d", d3.Len())
	}
	for i := 0; i < 100; i++ {
		if d3.Get(i) != 0 {
			t.Fatalf("short take not zeroed at %d", i)
		}
	}
	if got := p.dataBytes; got != (256+100)*8 {
		t.Fatalf("dataBytes = %d, want %d", got, (256+100)*8)
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
	p.I64(1024)   // 8 KiB arena
	p.I32(1024)   // 4 KiB arena
	p.BV(1 << 12) // bit-vector backing
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
