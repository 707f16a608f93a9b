package mem

import (
	mathbits "math/bits"
	"sync"

	"rapid/internal/coltypes"
	"rapid/internal/obs"
)

// Slab is the bounded recycler of operator-lifetime buffers, the second tier
// of the memory discipline: a TilePool serves what dies with a tile or a work
// unit, a Slab what dies with the operator that made it — partition buffers,
// sink staging, match lists — and only a relation that leaves its operator
// lives on the collected heap. The paper's QEF owns its DRAM intermediates and
// never allocates on the execution path; here a join-heavy query otherwise
// spends more time allocating, zeroing and collecting such buffers than in
// its kernels.
//
// Three rules, which every lease site states where it leans on them:
//
//   - A leased buffer is NOT zeroed: it holds whatever its previous holder
//     wrote (a poison pattern in race builds). The holder writes every
//     element it later reads or hands on.
//   - A leased buffer never backs a Relation that leaves its operator.
//     Results, cache entries and exchange payloads are copied to the heap; a
//     lease that is never returned is ordinary garbage, never an error.
//   - A buffer is returned only once nothing can still touch it: inside one
//     work unit, or by the orchestrator after the batch that used it has
//     returned (both executors wait for every strand, on error too).
//
// Buffers are pointer-free words in size classes of eight per power of two,
// so a fresh buffer is at most 12.5 % larger than asked; a lease is served by
// the smallest retained buffer within slabReach classes of its own. There is
// no small-request path to the heap: the generated-query lanes work on tables
// of a few hundred rows and must reach recycled memory too. Retained bytes
// never exceed the bound given to NewSlab; when a return would, buffers of
// the class that has gone unrequested longest are dropped first, so sizes
// one query left behind cannot crowd out the sizes in use.
//
// A nil *Slab is valid and leases from the heap: a context with no scheduler
// (tray coordinator, internal/bench, unit tests) runs the same operator code.
// A Slab is safe for concurrent use.
type Slab struct {
	mu       sync.Mutex
	free     [][][]int64 // per class, most recently returned last
	lastUse  []uint64    // per class: tick of its latest Lease
	tick     uint64
	retained int // bytes on the free lists
	max      int
	closed   bool

	leases, misses *obs.Counter
	retainedGauge  *obs.Gauge
}

// NewSlab returns an empty slab retaining at most maxBytes, counting into
// mem_slab_leases_total, mem_slab_misses_total and mem_slab_retained_bytes of
// m (nil: uncounted). Slabs sharing a registry add up in the gauge.
func NewSlab(maxBytes int, m *obs.Registry) *Slab {
	classes, _ := slabClass(maxBytes / 8) // every class the bound can hold is below
	return &Slab{
		free:          make([][][]int64, classes+1),
		lastUse:       make([]uint64, classes+1),
		max:           maxBytes,
		leases:        m.Counter("mem_slab_leases_total"),
		misses:        m.Counter("mem_slab_misses_total"),
		retainedGauge: m.Gauge("mem_slab_retained_bytes"),
	}
}

// slabReach is how many classes above its own a lease may be served from: two
// powers of two, a buffer up to 4x the request. The staging of one join is
// dozens of like-sized chunks, and another join's are a different size; with
// exact classes only, a pass of five join queries needs 145 MB retained to
// stop missing, with this reach 82 MB (EXPERIMENTS.md, Fig 16 table).
const slabReach = 16

// slabClass returns the smallest size class holding words, and its size in
// words: (8+m) << e for m in [0, 8), from 8 words up.
func slabClass(words int) (class, size int) {
	if words <= 8 {
		return 0, 8
	}
	e := mathbits.Len(uint(words)) - 4 // words >> e is in [8, 16)
	m := (words + 1<<e - 1) >> e       // rounded up: in [8, 16]
	return e*8 + m - 8, m << e
}

// Lease returns an UN-ZEROED buffer of the given length.
func (s *Slab) Lease(words int) []int64 {
	if s == nil {
		return make([]int64, words)
	}
	class, size := slabClass(words)
	s.leases.Inc()
	s.mu.Lock()
	s.tick++
	for c := class; c < len(s.free) && c <= class+slabReach; c++ {
		s.lastUse[c] = s.tick
		if len(s.free[c]) > 0 {
			buf := s.popLocked(c)
			s.mu.Unlock()
			return buf[:words]
		}
	}
	s.mu.Unlock()
	s.misses.Inc()
	return make([]int64, words, size)
}

// Return gives a leased buffer back. The caller must not touch it again.
// Anything that is not a whole lease of an open slab — a heap buffer of a nil
// slab, a lease too large to retain — is left to the collector.
func (s *Slab) Return(buf []int64) {
	buf = buf[:cap(buf)]
	poison(buf)
	if s == nil {
		return
	}
	class, size := slabClass(len(buf))
	if size != len(buf) || 8*size > s.max {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	for s.retained+8*size > s.max {
		// Drop one buffer of the non-empty class leased least recently.
		victim := -1
		for c, l := range s.free {
			if len(l) > 0 && (victim < 0 || s.lastUse[c] < s.lastUse[victim]) {
				victim = c
			}
		}
		s.popLocked(victim)
	}
	s.free[class] = append(s.free[class], buf)
	s.retained += 8 * size
	s.retainedGauge.Add(int64(8 * size))
	s.mu.Unlock()
}

// popLocked takes the most recently returned buffer of a non-empty class off
// its list. The gauge moves under the lock, with retained: it never runs
// ahead of a lease.
func (s *Slab) popLocked(class int) []int64 {
	l := s.free[class]
	buf := l[len(l)-1]
	l[len(l)-1] = nil
	s.free[class] = l[:len(l)-1]
	s.retained -= 8 * len(buf)
	s.retainedGauge.Add(int64(-8 * len(buf)))
	return buf
}

// Close drops every retained buffer; later returns are dropped too. Leases
// still out stay valid (they are heap memory) and later leases miss.
func (s *Slab) Close() {
	s.mu.Lock()
	s.closed = true
	clear(s.free)
	s.retainedGauge.Add(int64(-s.retained))
	s.retained = 0
	s.mu.Unlock()
}

// U32 leases n un-zeroed uint32s. words is what the caller Returns.
func (s *Slab) U32(n int) (v []uint32, words []int64) {
	words = s.Lease((n + 1) / 2)
	return coltypes.WordsAs[uint32](words, n), words
}

// Data leases an un-zeroed column buffer of the given width and length.
// words is what the caller Returns.
func (s *Slab) Data(w coltypes.Width, n int) (d coltypes.Data, words []int64) {
	words = s.Lease((n*w.Bytes() + 7) / 8)
	return coltypes.OfWords(words, w, n), words
}
