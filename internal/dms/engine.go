package dms

import "rapid/internal/coltypes"

// Engine is the DMS: it prices the data-movement operations between DRAM
// columns and DMEM-resident buffers. It moves no data — operators read their
// tiles as views of the DRAM columns — and bills what the hardware transfer
// would cost. Per-operation Timing values are returned to the caller so tasks
// can overlap transfer time with compute time. The engine also keeps its own
// totals: an independent ledger that
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

// Read bills the transfer of rows [lo, hi) of each source column (DRAM) into
// DMEM: one descriptor per column. This is the sequential access pattern of
// the relation accessor.
func (e *Engine) Read(src []coltypes.Data, lo, hi int) Timing {
	rows := hi - lo
	if rows < 0 {
		panic("dms: negative row range")
	}
	var t Timing
	for _, s := range src {
		bytes := rows * s.Width().Bytes()
		t.Seconds += e.model.chunkTime(bytes, len(src))
		t.Bytes += int64(bytes)
		t.Descriptors++
	}
	e.account(t)
	return t
}

// WriteTiming bills a DMEM→DRAM columnar write of `rows` rows across ncols
// columns of widthBytes-wide elements: one descriptor per column plus the bus
// turnaround of the write burst.
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

// StreamRead bills a contiguous DRAM->DMEM buffer load: one descriptor, a
// single page open and the byte time. Used for buffers an operator reads
// whole, such as a join filter's bit-vector or a partition's hash vector.
func (e *Engine) StreamRead(bytes int) Timing {
	t := Timing{
		Seconds:     (e.model.DescriptorIssueNs+e.model.PageSwitchBaseNs)*1e-9 + float64(bytes)/e.model.PeakBytesPerSec,
		Bytes:       int64(bytes),
		Descriptors: 1,
	}
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
