package mem

import (
	"math/rand"
	"sync"
	"testing"

	"rapid/internal/coltypes"
	"rapid/internal/obs"
)

// TestSlabClassesWasteAtMostAnEighth: every request gets the smallest class
// that holds it, a class is at most 12.5 % larger than the request (8 words
// at least), and class sizes map back to themselves — Return tells a whole
// lease from anything else by that.
func TestSlabClassesWasteAtMostAnEighth(t *testing.T) {
	prevClass, prevSize := -1, 0
	for words := 0; words < 1<<14; words++ {
		class, size := slabClass(words)
		if size < words || size < 8 || 8*(size-words) > max(words, 64) {
			t.Fatalf("%d words: class %d of %d words", words, class, size)
		}
		if class < prevClass || (class == prevClass) != (size == prevSize) || class > prevClass+1 {
			t.Fatalf("%d words: class %d size %d after class %d size %d", words, class, size, prevClass, prevSize)
		}
		if c, s := slabClass(size); c != class || s != size {
			t.Fatalf("class %d size %d maps to class %d size %d", class, size, c, s)
		}
		prevClass, prevSize = class, size
	}
}

func slabGauge(reg *obs.Registry) int64 { return reg.Gauge("mem_slab_retained_bytes").Value() }

// TestSlabRecyclesUnzeroedWithinReach: a returned buffer comes back to a
// request of its class or of a class up to slabReach below — with what its
// last holder wrote — and to none outside; leases, misses and the retained
// gauge say so.
func TestSlabRecyclesUnzeroedWithinReach(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSlab(1<<20, reg)
	a := s.Lease(1000)
	if len(a) != 1000 || cap(a) != 1024 {
		t.Fatalf("lease: len %d cap %d", len(a), cap(a))
	}
	a[0] = 42
	s.Return(a)
	if got := slabGauge(reg); got != 8*1024 {
		t.Fatalf("retained %d after one return", got)
	}
	if b := s.Lease(2000); &b[0] == &a[0] {
		t.Fatal("a 1024-word buffer served a 2000-word lease")
	}
	if b := s.Lease(240); &b[0] == &a[0] { // 17 classes below 1024
		t.Fatal("served from beyond slabReach")
	}
	b := s.Lease(250) // 256 words: 16 classes below
	if &b[0] != &a[0] || len(b) != 250 || cap(b) != 1024 {
		t.Fatalf("lease within reach not recycled: len %d cap %d", len(b), cap(b))
	}
	if b[0] == 0 { // 42, or the poison of a race build
		t.Fatal("recycled lease was cleared")
	}
	if got := slabGauge(reg); got != 0 {
		t.Fatalf("retained %d with everything out", got)
	}
	v := reg.Values()
	if v["mem_slab_leases_total"] != 4 || v["mem_slab_misses_total"] != 3 {
		t.Fatalf("leases %d misses %d, want 4 and 3", v["mem_slab_leases_total"], v["mem_slab_misses_total"])
	}
	// Not a whole lease: left to the collector, nothing retained.
	s.Return(make([]int64, 1000))
	s.Return(b[:17:17])
	s.Return(nil)
	if got := slabGauge(reg); got != 0 {
		t.Fatalf("retained %d after foreign returns", got)
	}
}

// TestSlabEvictsTheClassUnusedLongest: at the bound a return makes room by
// dropping what has gone unrequested longest, never by refusing the newcomer.
func TestSlabEvictsTheClassUnusedLongest(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSlab(3*8*1024, reg)
	old, mid := s.Lease(512), s.Lease(1024)
	s.Return(old)
	s.Return(mid)
	for i := 0; i < 3; i++ { // the 1024 class is in use, the 512 class is not
		s.Return(s.Lease(1024))
	}
	big := s.Lease(2048)
	s.Return(big) // 512+1024+2048 words > the bound: the 512 goes
	if got := slabGauge(reg); got != 8*(1024+2048) {
		t.Fatalf("retained %d", got)
	}
	if b := s.Lease(2048); &b[0] != &big[0] {
		t.Fatal("the newcomer was refused")
	}
	if b := s.Lease(1024); &b[0] != &mid[0] {
		t.Fatal("the class in use was evicted")
	}
	// A buffer the bound can never hold is not retained at all.
	s.Return(s.Lease(4 * 1024))
	if got := slabGauge(reg); got != 0 {
		t.Fatalf("retained %d", got)
	}
}

// TestNilSlabLeasesFromTheHeap: the slab of a context with no scheduler.
func TestNilSlabLeasesFromTheHeap(t *testing.T) {
	var s *Slab
	a := s.Lease(100)
	if len(a) != 100 {
		t.Fatalf("len %d", len(a))
	}
	for _, v := range a {
		if v != 0 {
			t.Fatal("heap lease not zeroed")
		}
	}
	s.Return(a)
	d, words := s.Data(coltypes.W2, 11)
	if d.Len() != 11 || d.Width() != coltypes.W2 || len(words) != 3 {
		t.Fatalf("Data: %d x %d over %d words", d.Len(), d.Width(), len(words))
	}
	if v, words := s.U32(5); len(v) != 5 || len(words) != 3 {
		t.Fatalf("U32: %d over %d words", len(v), len(words))
	}
}

// TestSlabHoldsItsBoundUnderStorm: 64 goroutines lease and return mixed sizes
// through one slab; whenever anyone looks, the retained bytes are within the
// bound and equal what the gauge says, no buffer is ever out twice, and Close
// leaves nothing retained whatever comes back afterwards.
func TestSlabHoldsItsBoundUnderStorm(t *testing.T) {
	const bound = 1 << 20
	const held = 0x0DD // first word of a buffer that is out
	reg := obs.NewRegistry()
	s := NewSlab(bound, reg)
	check := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		sum := 0
		for _, l := range s.free {
			for _, b := range l {
				sum += 8 * len(b)
			}
		}
		if sum != s.retained || sum > bound {
			t.Errorf("retained %d, free lists hold %d, bound %d", s.retained, sum, bound)
		}
	}
	var wg sync.WaitGroup
	late := make([][]int64, 64)
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var out [][]int64
			for i := 0; i < 400; i++ {
				words := 1 << rng.Intn(16) // up to 512 KiB, half the bound
				words += rng.Intn(words)
				b := s.Lease(words)
				if b[0] == held {
					t.Errorf("goroutine %d was leased a buffer that is still out", g)
					return
				}
				b[0] = held
				out = append(out, b)
				if len(out) > 4 || rng.Intn(3) == 0 {
					k := rng.Intn(len(out))
					out[k][0] = 0
					s.Return(out[k])
					out = append(out[:k], out[k+1:]...)
				}
				if i%64 == 0 {
					check()
					if got := slabGauge(reg); got < 0 {
						t.Errorf("gauge %d", got)
					}
				}
			}
			late[g] = s.Lease(100)
			for _, b := range out {
				b[0] = 0
				s.Return(b)
			}
		}()
	}
	wg.Wait()
	check()
	if got := slabGauge(reg); got != int64(s.retained) || got == 0 {
		t.Fatalf("gauge %d, retained %d", got, s.retained)
	}
	s.Close()
	for _, b := range late {
		s.Return(b) // a lease that outlived the slab
	}
	check()
	if got := slabGauge(reg); got != 0 || s.retained != 0 {
		t.Fatalf("after Close: gauge %d, retained %d", got, s.retained)
	}
	if v := reg.Values(); v["mem_slab_leases_total"] != 64*401 || v["mem_slab_misses_total"] == 0 || v["mem_slab_misses_total"] >= 64*401 {
		t.Fatalf("leases %d misses %d", v["mem_slab_leases_total"], v["mem_slab_misses_total"])
	}
}
