// Package mem models the RAPID DPU memory hierarchy that the software can
// see: the per-dpCore 32 KiB DMEM scratchpad (paper §2.2) and the shared
// DRAM. Go has no scratchpads, so DMEM here is an *accounted* region: buffers
// allocated from a DMEM arena are ordinary Go slices, but allocation is
// bounds-checked against the 32 KiB capacity. That capacity check is what
// drives task formation, join partitioning depth and the hash-table overflow
// path, exactly as on hardware.
package mem

import (
	"fmt"
)

// DMEMSize is the scratchpad capacity of one dpCore: 32 KiB.
const DMEMSize = 32 * 1024

// Alignment is the DMS transfer alignment in bytes. The DPU has strict
// alignment rules for memory addressing (paper §4.2); we align every DMEM
// allocation to 8 bytes.
const Alignment = 8

// ErrDMEMExhausted is returned when an allocation does not fit in the
// remaining DMEM space. Operators use it to trigger graceful overflow to
// DRAM (paper §6.4) and the compiler uses capacity checks to size tasks.
type ErrDMEMExhausted struct {
	Requested int
	Free      int
}

func (e *ErrDMEMExhausted) Error() string {
	return fmt.Sprintf("mem: DMEM exhausted: requested %d bytes, %d free", e.Requested, e.Free)
}

// DMEM is a bump allocator over a single dpCore's scratchpad. It is not safe
// for concurrent use: each dpCore owns exactly one DMEM, and the actor model
// guarantees single-threaded access per core.
type DMEM struct {
	capacity int
	used     int
	high     int   // max used since creation; survives Reset (observability)
	marks    []int // stack of Mark offsets for scoped release
}

// NewDMEMWithCapacity returns a DMEM allocator of the given capacity
// (DMEMSize on the default SoC). Tests and the DMEM-pressure
// failure-injection experiments shrink it to force the overflow paths.
func NewDMEMWithCapacity(capacity int) *DMEM {
	if capacity < 0 {
		panic("mem: negative DMEM capacity")
	}
	return &DMEM{capacity: capacity}
}

func align(n int) int { return (n + Alignment - 1) &^ (Alignment - 1) }

// Alloc reserves n bytes and returns an error if they do not fit.
func (d *DMEM) Alloc(n int) error {
	if n < 0 {
		panic("mem: negative allocation")
	}
	n = align(n)
	if d.used+n > d.capacity {
		return &ErrDMEMExhausted{Requested: n, Free: d.capacity - d.used}
	}
	d.used += n
	if d.used > d.high {
		d.high = d.used
	}
	return nil
}

// HighWater returns the maximum reserved byte count since creation. It
// survives Reset (tasks reset DMEM between work units), so a query
// that owns the core can read its true scratchpad footprint afterwards.
func (d *DMEM) HighWater() int { return d.high }

// Free returns the available byte count.
func (d *DMEM) Free() int { return d.capacity - d.used }

// Mark pushes the current allocation offset. Paired with Release it gives
// operators scoped scratch space (a task resets DMEM between partitions).
func (d *DMEM) Mark() { d.marks = append(d.marks, d.used) }

// Release pops the most recent Mark, freeing everything allocated since.
func (d *DMEM) Release() {
	if len(d.marks) == 0 {
		panic("mem: Release without Mark")
	}
	d.used = d.marks[len(d.marks)-1]
	d.marks = d.marks[:len(d.marks)-1]
}

// Reset frees all allocations and marks.
func (d *DMEM) Reset() {
	d.used = 0
	d.marks = d.marks[:0]
}
