package mem

import (
	"rapid/internal/bits"
	"rapid/internal/coltypes"
)

// TilePool is the per-core pool of reusable host buffers backing the QEF
// scratch API. On the DPU every operator runs out of the 32 KiB DMEM
// scratchpad — one untyped region, bump-allocated and never cleared — and
// never allocates mid-query; the Go engine mirrors that discipline by serving
// all tile-lifetime buffers (expression accumulators, bit-vectors, RID lists,
// gathered column vectors) from this pool instead of the Go heap, so the
// steady-state tile loop is allocation-free.
//
// Data buffers of every width, and the words of every bit-vector, are views
// over one pointer-free word region, like a Slab lease. A data buffer is NOT
// zeroed: it holds whatever an earlier take wrote (the slab's poison pattern
// in race builds), and the taker writes every element it later reads — a
// site that reads first clears what it took and says so. Only what holds
// pointers lives apart — the two header arenas ([]coltypes.Data, [][]int64)
// and the bit-vector structs — and header slices and bit-vectors are handed
// out cleared.
//
// Lifetime model, mirroring DMEM's Mark/Release scoping:
//
//   - Reset frees everything — called by the QEF at work-unit boundaries.
//   - Mark/Release give task sources a scope for unit-lifetime buffers
//     (e.g. the accessor's tile view headers, which live across tiles).
//   - ResetTile rolls back to the innermost Mark (or to empty when none is
//     active) — called by task sources at every tile boundary, recycling all
//     tile-lifetime buffers without touching unit-lifetime ones.
//
// Buffers handed out are invalidated by the Release/ResetTile/Reset that
// covers them; holding one past that point aliases a future take. The pool
// is not safe for concurrent use: like DMEM, each core owns exactly one.
//
// HighWater tracks the bytes of data buffers outstanding, as asked for
// (slice headers and Tile structs are excluded); the DMEMSize conformance
// tests compare the per-tile high-water mark against each operator's
// declared budget, making the declarations load-bearing.
type TilePool struct {
	region []int64
	hdrs   []coltypes.Data
	rows   [][]int64
	vecs   []*bits.Vector // recycled by position: the k-th BV of a scope reuses the k-th struct

	at    poolMark // the next take of each kind
	marks []poolMark

	highWater int
	grows     int64
}

// poolMark is a position in the pool: one offset per arena, and the data
// bytes taken up to it.
type poolMark struct {
	region, hdrs, rows, vecs int
	dataBytes                int
}

// NewTilePool returns an empty pool.
func NewTilePool() *TilePool { return &TilePool{} }

// minArenaElems is the smallest backing array an arena allocates, in
// elements: the region's first array is 32 KiB, one DMEM, so transient
// growth stops after the first tiles.
const minArenaElems = 1 << 12

// bump returns the n elements of *buf at *off and moves *off past them.
// Growth abandons the old backing array (outstanding slices stay valid
// against it) and continues bumping in a larger one, so offsets recorded in
// marks remain meaningful.
func bump[T any](p *TilePool, buf *[]T, off *int, n int) []T {
	if *off+n > len(*buf) {
		*buf = make([]T, max(2*(*off+n), minArenaElems))
		p.grows++
	}
	s := (*buf)[*off : *off+n : *off+n]
	*off += n
	return s
}

// take returns the un-zeroed words holding bytes of data.
func (p *TilePool) take(bytes int) []int64 {
	s := bump(p, &p.region, &p.at.region, (bytes+7)/8)
	poison(s)
	p.at.dataBytes += bytes
	p.highWater = max(p.highWater, p.at.dataBytes)
	return s
}

// Mark opens a scope; buffers taken after it are freed by the matching
// Release. Task sources bracket their unit-lifetime buffers with Mark so
// ResetTile (which rolls back to the innermost open Mark) spares them.
func (p *TilePool) Mark() { p.marks = append(p.marks, p.at) }

// Release closes the innermost Mark scope.
func (p *TilePool) Release() {
	if len(p.marks) == 0 {
		panic("mem: TilePool Release without Mark")
	}
	p.at = p.marks[len(p.marks)-1]
	p.marks = p.marks[:len(p.marks)-1]
}

// ResetTile recycles all tile-lifetime buffers: everything taken since the
// innermost Mark (or since Reset when no Mark is open).
func (p *TilePool) ResetTile() {
	if len(p.marks) > 0 {
		p.at = p.marks[len(p.marks)-1]
		return
	}
	p.at = poolMark{}
}

// Reset frees everything, including open Mark scopes. Called by the QEF at
// work-unit boundaries (the analogue of DMEM.Reset).
func (p *TilePool) Reset() {
	p.at = poolMark{}
	p.marks = p.marks[:0]
}

// I64 returns an un-zeroed tile-lifetime []int64 of length n.
func (p *TilePool) I64(n int) []int64 { return p.take(8 * n) }

// U32 returns an un-zeroed tile-lifetime []uint32 of length n (RID lists,
// group ids, hash values).
func (p *TilePool) U32(n int) []uint32 { return coltypes.WordsAs[uint32](p.take(4*n), n) }

// Data returns an un-zeroed tile-lifetime column buffer of the given width
// and length.
func (p *TilePool) Data(w coltypes.Width, n int) coltypes.Data {
	return coltypes.OfWords(p.take(n*w.Bytes()), w, n)
}

// Headers returns a zeroed []coltypes.Data header slice of length n. Header
// bytes are not counted against the DMEM-correspondence usage.
func (p *TilePool) Headers(n int) []coltypes.Data {
	s := bump(p, &p.hdrs, &p.at.hdrs, n)
	clear(s)
	return s
}

// RowHeaders returns a zeroed [][]int64 header slice of length n.
func (p *TilePool) RowHeaders(n int) [][]int64 {
	s := bump(p, &p.rows, &p.at.rows, n)
	clear(s)
	return s
}

// BV returns a cleared n-bit vector over words of the region.
func (p *TilePool) BV(n int) *bits.Vector {
	words := p.take(bits.VectorSizeBytes(n))
	if p.at.vecs == len(p.vecs) {
		p.vecs = append(p.vecs, new(bits.Vector))
		p.grows++
	}
	v := p.vecs[p.at.vecs]
	p.at.vecs++
	v.Over(coltypes.WordsAs[uint64](words, len(words)), n)
	return v
}

// HighWater returns the most bytes of data buffers taken at once (headers
// excluded — the pool-side analogue of DMEM.Used) since the last
// MarkHighWater.
func (p *TilePool) HighWater() int { return p.highWater }

// MarkHighWater restarts high-water tracking from the current usage and
// returns it. The DMEMSize conformance tests call it before driving one tile
// through an operator.
func (p *TilePool) MarkHighWater() int {
	p.highWater = p.at.dataBytes
	return p.at.dataBytes
}

// Grows returns the number of backing-array allocations the pool has
// performed. A steady-state tile loop must stop growing after the first few
// tiles; the QEF exports the delta as qef_pool_grows_total.
func (p *TilePool) Grows() int64 { return p.grows }

// Element sizes of the two header arenas on a 64-bit target; a test checks
// them against unsafe.Sizeof.
const (
	dataHeaderBytes  = 24 // coltypes.Data: pointer, length, width
	sliceHeaderBytes = 24 // []int64
)

// RetainedBytes returns the bytes of backing storage the pool keeps alive
// for reuse (the region and the header arenas), independent of how much is
// currently taken. With pools owned by long-lived scheduler workers this is
// the cross-query memory footprint of pooling.
func (p *TilePool) RetainedBytes() int {
	return 8*len(p.region) + dataHeaderBytes*len(p.hdrs) + sliceHeaderBytes*len(p.rows)
}

// TrimTo bounds the pool's retained storage: when RetainedBytes exceeds
// maxBytes the pool drops ALL backing arrays (arenas regrow lazily on the
// next take). Scheduler workers call it between work units after serving a
// memory-hungry query, so pooling survives across queries without one giant
// query pinning its arenas forever. The caller must guarantee no pool
// buffers are outstanding: TrimTo resets the pool outright.
func (p *TilePool) TrimTo(maxBytes int) {
	if p.RetainedBytes() <= maxBytes {
		return
	}
	*p = TilePool{grows: p.grows}
}
