package dms

import (
	"fmt"

	"rapid/internal/coltypes"
)

// Engine is the DMS: it executes data-movement operations between DRAM
// columns and DMEM-resident buffers, accounting both the functional effect
// (data really moves) and the modeled time. Per-operation Timing values are
// returned to the caller so tasks can overlap transfer time with compute
// time. The engine also keeps its own totals: an independent ledger that
// obs.Profile.CheckInvariants reconciles the per-span attributions against,
// which is what catches an operation whose Timing never reached
// qef.TaskCtx.AddTransfer.
//
// An engine has one writer: the ledger is summed in the order its operations
// were issued, so its float seconds are a function of that order alone. An
// execution context gives every virtual core an engine of its own beside the
// orchestrator's and adds them up in core order (qef.Context.Usage).
type Engine struct {
	model Model

	totalsRead  Timing
	totalsWrite Timing
}

// NewEngine creates a DMS with the given timing model.
func NewEngine(model Model) *Engine { return &Engine{model: model} }

// Totals returns the cumulative timing over all operations (both
// directions merged).
func (e *Engine) Totals() Timing {
	rd, wr := e.TotalsByDir()
	rd.Add(wr)
	return rd
}

// TotalsByDir returns the cumulative timing split by transfer direction:
// DRAM→DMEM reads and DMEM→DRAM writes. The split is what the profiling
// invariants reconcile per-operator byte attributions against.
func (e *Engine) TotalsByDir() (read, write Timing) { return e.totalsRead, e.totalsWrite }

// ResetTotals zeroes the cumulative counters.
func (e *Engine) ResetTotals() { e.totalsRead, e.totalsWrite = Timing{}, Timing{} }

func (e *Engine) account(t Timing) {
	if t.Write {
		e.totalsWrite.Add(t)
	} else {
		e.totalsRead.Add(t)
	}
}

// Read transfers rows [lo, hi) of each source column (DRAM) into the
// corresponding destination buffer (DMEM). Destination buffers must be at
// least hi-lo long; widths must match. This is the sequential access
// pattern of the relation accessor.
func (e *Engine) Read(src []coltypes.Data, lo, hi int, dst []coltypes.Data) Timing {
	rows := hi - lo
	if rows < 0 {
		panic("dms: negative row range")
	}
	if len(src) != len(dst) {
		panic("dms: column count mismatch")
	}
	var t Timing
	for i, s := range src {
		if s.Width() != dst[i].Width() {
			panic(fmt.Sprintf("dms: width mismatch on column %d", i))
		}
		dst[i].CopyFrom(0, s.Slice(lo, hi))
		bytes := rows * s.Width().Bytes()
		t.Seconds += e.model.chunkTime(bytes, len(src))
		t.Bytes += int64(bytes)
		t.Descriptors++
	}
	e.account(t)
	return t
}

// Write transfers `rows` rows from DMEM buffers back to DRAM columns at
// offset `at`.
func (e *Engine) Write(dst []coltypes.Data, at int, src []coltypes.Data, rows int) Timing {
	if len(src) != len(dst) {
		panic("dms: column count mismatch")
	}
	var t Timing
	for i, s := range src {
		dst[i].CopyFrom(at, s.Slice(0, rows))
		bytes := rows * s.Width().Bytes()
		t.Seconds += e.model.chunkTime(bytes, len(src))
		t.Bytes += int64(bytes)
		t.Descriptors++
	}
	t.Seconds += e.model.WriteTurnaroundNs * 1e-9
	t.Write = true
	e.account(t)
	return t
}

// WriteTiming bills a DMEM→DRAM columnar write of `rows` rows across ncols
// columns of widthBytes-wide elements without moving any data. The timing
// formula is identical to Write's, so callers whose functional effect
// happens elsewhere (e.g. the collect sink's host-side result append) can
// account the materialization without building throwaway destination
// buffers.
func (e *Engine) WriteTiming(ncols, rows, widthBytes int) Timing {
	var t Timing
	for i := 0; i < ncols; i++ {
		bytes := rows * widthBytes
		t.Seconds += e.model.chunkTime(bytes, ncols)
		t.Bytes += int64(bytes)
		t.Descriptors++
	}
	t.Seconds += e.model.WriteTurnaroundNs * 1e-9
	t.Write = true
	e.account(t)
	return t
}

// StreamWrite bills a contiguous DMEM->DRAM buffer flush: one chained
// descriptor, a single page open, the bus turnaround and the byte time.
// Used by the software partitioning operator's local-buffer flushes, where
// each flush is one contiguous region per partition.
func (e *Engine) StreamWrite(bytes int) Timing {
	t := Timing{
		Seconds: (e.model.DescriptorIssueNs+e.model.PageSwitchBaseNs+e.model.WriteTurnaroundNs)*1e-9 +
			float64(bytes)/e.model.PeakBytesPerSec,
		Bytes:       int64(bytes),
		Descriptors: 1,
		Write:       true,
	}
	e.account(t)
	return t
}
