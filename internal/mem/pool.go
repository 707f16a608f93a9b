package mem

import (
	"rapid/internal/bits"
	"rapid/internal/coltypes"
)

// TilePool is the per-core pool of reusable host buffers backing the QEF
// scratch API. On the DPU every operator runs out of the 32 KiB DMEM
// scratchpad and never allocates mid-query; the Go engine mirrors that
// discipline by serving all tile-lifetime buffers (expression accumulators,
// bit-vectors, RID lists, gathered column vectors) from this pool instead of
// the Go heap, so the steady-state tile loop is allocation-free.
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
// HighWater tracks the bytes of data buffers outstanding
// (slice headers and Tile structs are excluded); the DMEMSize conformance
// tests compare the per-tile high-water mark against each operator's
// declared budget, making the declarations load-bearing.
type TilePool struct {
	i8   poolArena[int8]
	i16  poolArena[int16]
	i32  poolArena[int32]
	i64  poolArena[int64]
	u32  poolArena[uint32]
	hdrs poolArena[coltypes.Data]
	rows poolArena[[]int64]

	bv bvArena

	marks []poolMark

	dataBytes int // data-buffer bytes currently taken
	highWater int
	grows     int64
}

// NewTilePool returns an empty pool.
func NewTilePool() *TilePool { return &TilePool{} }

// minArenaElems is the smallest backing array a typed arena allocates, in
// elements. Matches the old I64Scratch minimum of 16 K elements scaled down
// per width so transient growth stops after the first tiles.
const minArenaElems = 1 << 12

// poolArena is a typed bump arena. Growth abandons the old backing array
// (outstanding slices stay valid against it) and continues bumping in a
// larger one, so offsets recorded in marks remain meaningful.
type poolArena[T any] struct {
	buf []T
	off int
}

func take[T any](p *TilePool, a *poolArena[T], n int) []T {
	if a.off+n > len(a.buf) {
		grow := 2 * (a.off + n)
		if grow < minArenaElems {
			grow = minArenaElems
		}
		a.buf = make([]T, grow)
		p.grows++
	}
	s := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// bvArena recycles bit-vectors by position: the k-th take of a scope reuses
// the k-th vector of the previous scope via Vector.Reuse.
type bvArena struct {
	vecs []*bits.Vector
	idx  int
}

type poolMark struct {
	i8, i16, i32, i64, u32, hdrs, rows int
	bv                                 int
	dataBytes                          int
}

func (p *TilePool) snapshot() poolMark {
	return poolMark{
		i8: p.i8.off, i16: p.i16.off, i32: p.i32.off, i64: p.i64.off,
		u32: p.u32.off, hdrs: p.hdrs.off, rows: p.rows.off,
		bv:        p.bv.idx,
		dataBytes: p.dataBytes,
	}
}

func (p *TilePool) restore(m poolMark) {
	p.i8.off, p.i16.off, p.i32.off, p.i64.off = m.i8, m.i16, m.i32, m.i64
	p.u32.off, p.hdrs.off, p.rows.off = m.u32, m.hdrs, m.rows
	p.bv.idx = m.bv
	p.dataBytes = m.dataBytes
}

// Mark opens a scope; buffers taken after it are freed by the matching
// Release. Task sources bracket their unit-lifetime buffers with Mark so
// ResetTile (which rolls back to the innermost open Mark) spares them.
func (p *TilePool) Mark() { p.marks = append(p.marks, p.snapshot()) }

// Release closes the innermost Mark scope.
func (p *TilePool) Release() {
	if len(p.marks) == 0 {
		panic("mem: TilePool Release without Mark")
	}
	p.restore(p.marks[len(p.marks)-1])
	p.marks = p.marks[:len(p.marks)-1]
}

// ResetTile recycles all tile-lifetime buffers: everything taken since the
// innermost Mark (or since Reset when no Mark is open).
func (p *TilePool) ResetTile() {
	if len(p.marks) > 0 {
		p.restore(p.marks[len(p.marks)-1])
		return
	}
	p.restore(poolMark{})
}

// Reset frees everything, including open Mark scopes. Called by the QEF at
// work-unit boundaries (the analogue of DMEM.Reset).
func (p *TilePool) Reset() {
	p.restore(poolMark{})
	p.marks = p.marks[:0]
}

func (p *TilePool) noteData(bytes int) {
	p.dataBytes += bytes
	if p.dataBytes > p.highWater {
		p.highWater = p.dataBytes
	}
}

// I8 returns a zeroed tile-lifetime []int8 of length n.
func (p *TilePool) I8(n int) []int8 { p.noteData(n); return take(p, &p.i8, n) }

// I16 returns a zeroed tile-lifetime []int16 of length n.
func (p *TilePool) I16(n int) []int16 { p.noteData(2 * n); return take(p, &p.i16, n) }

// I32 returns a zeroed tile-lifetime []int32 of length n.
func (p *TilePool) I32(n int) []int32 { p.noteData(4 * n); return take(p, &p.i32, n) }

// I64 returns a zeroed tile-lifetime []int64 of length n.
func (p *TilePool) I64(n int) []int64 { p.noteData(8 * n); return take(p, &p.i64, n) }

// U32 returns a zeroed tile-lifetime []uint32 of length n (RID lists, group
// ids, hash values).
func (p *TilePool) U32(n int) []uint32 { p.noteData(4 * n); return take(p, &p.u32, n) }

// Headers returns a zeroed []coltypes.Data header slice of length n. Header
// bytes are not counted against the DMEM-correspondence usage.
func (p *TilePool) Headers(n int) []coltypes.Data { return take(p, &p.hdrs, n) }

// RowHeaders returns a zeroed [][]int64 header slice of length n.
func (p *TilePool) RowHeaders(n int) [][]int64 { return take(p, &p.rows, n) }

// BV returns a cleared n-bit vector.
func (p *TilePool) BV(n int) *bits.Vector {
	a := &p.bv
	if a.idx == len(a.vecs) {
		a.vecs = append(a.vecs, bits.NewVector(n))
		p.grows++
	}
	v := a.vecs[a.idx]
	a.idx++
	v.Reuse(n)
	p.noteData(v.SizeBytes())
	return v
}

// Data returns a zeroed coltypes.Data buffer of the given width and length:
// a view over the typed arena of that width.
func (p *TilePool) Data(w coltypes.Width, n int) coltypes.Data {
	switch w {
	case coltypes.W1:
		return coltypes.Of(p.I8(n))
	case coltypes.W2:
		return coltypes.Of(p.I16(n))
	case coltypes.W4:
		return coltypes.Of(p.I32(n))
	}
	return coltypes.Of(p.I64(n))
}

// HighWater returns the most bytes of data buffers taken at once (headers
// excluded — the pool-side analogue of DMEM.Used) since the last
// MarkHighWater.
func (p *TilePool) HighWater() int { return p.highWater }

// MarkHighWater restarts high-water tracking from the current usage and
// returns it. The DMEMSize conformance tests call it before driving one tile
// through an operator.
func (p *TilePool) MarkHighWater() int {
	p.highWater = p.dataBytes
	return p.dataBytes
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
// for reuse (typed and header arenas, bit-vectors), independent of how much
// is currently taken. With pools owned by long-lived scheduler
// workers this is the cross-query memory footprint of pooling.
func (p *TilePool) RetainedBytes() int {
	total := len(p.i8.buf) + 2*len(p.i16.buf) + 4*len(p.i32.buf) +
		8*len(p.i64.buf) + 4*len(p.u32.buf) +
		dataHeaderBytes*len(p.hdrs.buf) + sliceHeaderBytes*len(p.rows.buf)
	for _, v := range p.bv.vecs {
		total += v.SizeBytes()
	}
	return total
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
