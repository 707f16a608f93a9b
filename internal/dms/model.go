// Package dms models the RAPID Data Movement System (paper §2.3): the
// on-chip programmable DMA engine that moves data between DRAM and the
// dpCores' DMEM scratchpads, and that partitions rows on the fly
// (hash-radix, range, round-robin) without involving the dpCores.
//
// The engine is a timing model only: it prices each transfer, hash pass and
// partitioning pass from a calibrated analytical model (this file), and the
// functional path moves the bytes — operators read tiles as views of the DRAM
// columns, and the hash vector comes from the primitives' CRC32 kernel.
// The calibration targets are the paper's own measurements: ~9.3 GiB/s for
// 32-way hardware partitioning of 4x4-byte columns (Fig 8) and >= 9 GiB/s
// (~75 % of DDR3 peak) for double-buffered reads at 128-row tiles (Fig 9),
// decaying slightly with column count and dropping at 64-row tiles.
package dms

import "rapid/internal/coltypes"

// Model holds the DMS timing parameters. The defaults are calibrated against
// the paper's Figures 8 and 9; see the constant comments for the targets.
type Model struct {
	// PeakBytesPerSec is the DDR3 channel peak (12 GiB/s ~ DDR3-1600).
	PeakBytesPerSec float64
	// DescriptorIssueNs is the per-descriptor issue cost inside a loop of
	// chained descriptors (setup proper is amortized by descriptor reuse).
	DescriptorIssueNs float64
	// PageSwitchBaseNs and PageSwitchPerColNs model the DRAM row-buffer
	// locality loss when the DMS interleaves fetches of many column
	// streams: switching to column stream c costs Base + PerCol*cols.
	PageSwitchBaseNs   float64
	PageSwitchPerColNs float64
	// WriteTurnaroundNs is the DDR bus turnaround cost charged once per
	// write burst in mixed read/write loops.
	WriteTurnaroundNs float64
	// Partition-engine row rates (rows/s): the CMEM -> CRC -> CID pipeline
	// is the bottleneck stage of hardware partitioning; rates differ
	// slightly by strategy, as in Fig 8.
	RadixRowsPerSec      float64
	HashRowsPerSecBase   float64 // 1 key
	HashRowsPerSecPerKey float64 // rate decrease per extra key
	RangeRowsPerSec      float64
	RoundRobinRowsPerSec float64
}

// DefaultModel returns the calibrated DMS model.
func DefaultModel() Model {
	return Model{
		PeakBytesPerSec:      12.9e9, // ~12 GiB/s
		DescriptorIssueNs:    3.0,
		PageSwitchBaseNs:     4.0,
		PageSwitchPerColNs:   0.20,
		WriteTurnaroundNs:    6.0,
		RadixRowsPerSec:      655e6,
		HashRowsPerSecBase:   645e6,
		HashRowsPerSecPerKey: 6e6,
		RangeRowsPerSec:      622e6,
		RoundRobinRowsPerSec: 660e6,
	}
}

// Timing reports the cost of a DMS operation.
type Timing struct {
	Seconds     float64
	Bytes       int64 // bytes moved over the DDR interface
	Descriptors int   // descriptors executed
	// Write marks the operation as a DRAM write (the execution framework
	// models read and write bus contention separately).
	Write bool
}

// Add accumulates another timing into t.
func (t *Timing) Add(o Timing) {
	t.Seconds += o.Seconds
	t.Bytes += o.Bytes
	t.Descriptors += o.Descriptors
}

// BytesPerSec returns the effective bandwidth of the operation.
func (t Timing) BytesPerSec() float64 {
	if t.Seconds == 0 {
		return 0
	}
	return float64(t.Bytes) / t.Seconds
}

// chunkTime returns the DDR-side time of transferring one column chunk of
// the given size when `cols` column streams are interleaved.
func (m Model) chunkTime(bytes int, cols int) float64 {
	pageSwitch := m.PageSwitchBaseNs + m.PageSwitchPerColNs*float64(cols)
	return (m.DescriptorIssueNs+pageSwitch)*1e-9 + float64(bytes)/m.PeakBytesPerSec
}

// readTime models a loop iteration reading `cols` column chunks of
// rows*width bytes each.
func (m Model) readTime(rows, cols int, width coltypes.Width) Timing {
	bytes := rows * width.Bytes()
	return Timing{
		Seconds:     float64(cols) * m.chunkTime(bytes, cols),
		Bytes:       int64(cols * bytes),
		Descriptors: cols,
	}
}

// partitionEngineRate returns the row rate of the CMEM/CRC/CID pipeline for
// a strategy.
func (m Model) partitionEngineRate(s Strategy, keys int) float64 {
	switch s {
	case Radix:
		return m.RadixRowsPerSec
	case Hash:
		r := m.HashRowsPerSecBase - m.HashRowsPerSecPerKey*float64(keys-1)
		if r < 1 {
			r = 1
		}
		return r
	case Range:
		return m.RangeRowsPerSec
	case RoundRobin:
		return m.RoundRobinRowsPerSec
	default:
		panic("dms: unknown strategy")
	}
}

// partitionTime models hardware partitioning of `rows` rows of `cols`
// columns: the DDR read stream and the partition-engine pipeline overlap, so
// the elapsed time is the slower of the two. Writes land in dpCore DMEMs
// (SRAM), not DRAM, so only the read side is billed to the DDR bus.
func (m Model) partitionTime(rows, cols int, width coltypes.Width, s Strategy, keys int) Timing {
	read := m.readTime(rows, cols, width)
	engine := float64(rows) / m.partitionEngineRate(s, keys)
	sec := read.Seconds
	if engine > sec {
		sec = engine
	}
	return Timing{Seconds: sec, Bytes: read.Bytes, Descriptors: read.Descriptors}
}
