// Package dpu models the RAPID Data Processing Unit (paper §2): a 5.8 W SoC
// with 32 simple in-order dpCores at 800 MHz, organized as 4 macros of 8
// cores, each core owning a 32 KiB DMEM scratchpad. The rest of the paper's
// SoC is not modelled as state: 16 KiB L1D and 8 KiB L1I per core and 256 KiB
// of shared L2 per macro are folded into the calibrated per-row constants of
// primitives/cost.go, and the power figures (51 mW dynamic per core at
// 800 MHz, 5.8 W provisioned for the SoC including DMS, ATE and uncore) are
// the constants of internal/power.
//
// Go cannot execute the dpCore ISA, so the model is *functional plus
// analytical*: operator primitives run as ordinary Go code producing correct
// results, and simultaneously charge cycles to their core's counter using an
// instruction-level cost model of the dpCore pipeline (dual issue of one ALU
// and one load/store op per cycle, single-cycle database instructions such
// as BVLD/FILT/CRC32, a stalling multiplier, and a static branch predictor
// that predicts backward branches taken). Simulated execution time and power
// figures are derived from these counters.
package dpu

import (
	"fmt"
	"sync/atomic"

	"rapid/internal/mem"
)

// FreqHz is the dpCore clock (800 MHz).
const FreqHz = 800e6

// Cycles counts dpCore clock cycles.
type Cycles int64

// Seconds converts a cycle count to seconds at the dpCore clock.
func (cy Cycles) Seconds() float64 { return float64(cy) / FreqHz }

// Config sizes a DPU SoC. The defaults match the paper.
type Config struct {
	NumCores  int // total dpCores (32)
	DMEMBytes int // scratchpad per core (32 KiB)
}

// DefaultConfig returns the paper's DPU configuration.
func DefaultConfig() Config {
	return Config{NumCores: 32, DMEMBytes: 32 * 1024}
}

// Validate checks internal consistency of the configuration.
func (c Config) Validate() error {
	switch {
	case c.NumCores <= 0:
		return fmt.Errorf("dpu: NumCores must be positive, got %d", c.NumCores)
	case c.DMEMBytes <= 0:
		return fmt.Errorf("dpu: DMEMBytes must be positive")
	}
	return nil
}

// Core is one dpCore: its private DMEM and a cycle counter. A Core is owned
// by a single goroutine at a time (the actor model
// of the QEF guarantees this), but the counters are atomic so that
// cross-core observers — qef.Context.Usage snapshotting a running query, the
// bench harness reading makespans mid-run — always see consistent values.
type Core struct {
	dmem *mem.DMEM

	cycles atomic.Int64
	// Pipeline statistic for the vectorization experiment (Fig 13).
	branchMisses atomic.Int64
}

// DMEM returns the core's scratchpad allocator.
func (co *Core) DMEM() *mem.DMEM { return co.dmem }

// Charge adds cy cycles to the core's counter.
func (co *Core) Charge(cy Cycles) {
	if cy < 0 {
		panic("dpu: negative cycle charge")
	}
	co.cycles.Add(int64(cy))
}

// ChargeBranchMiss records a mispredicted branch and its pipeline penalty.
func (co *Core) ChargeBranchMiss(n int64) {
	co.branchMisses.Add(n)
	co.cycles.Add(n * int64(BranchMissPenalty))
}

// Cycles returns the core's accumulated cycle count.
func (co *Core) Cycles() Cycles { return Cycles(co.cycles.Load()) }

// BranchMisses returns the core's accumulated branch misprediction count.
func (co *Core) BranchMisses() int64 { return co.branchMisses.Load() }

// Reset zeroes the counters and the DMEM allocator.
func (co *Core) Reset() {
	co.cycles.Store(0)
	co.branchMisses.Store(0)
	co.dmem.Reset()
}

// SoC is a full DPU: configuration and cores.
type SoC struct {
	cfg   Config
	cores []*Core
}

// New builds a DPU SoC from cfg.
func New(cfg Config) (*SoC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &SoC{cfg: cfg}
	s.cores = make([]*Core, cfg.NumCores)
	for i := range s.cores {
		s.cores[i] = &Core{dmem: mem.NewDMEMWithCapacity(cfg.DMEMBytes)}
	}
	return s, nil
}

// MustNew builds a SoC and panics on config errors.
func MustNew(cfg Config) *SoC {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the SoC configuration.
func (s *SoC) Config() Config { return s.cfg }

// Core returns core i.
func (s *SoC) Core(i int) *Core { return s.cores[i] }

// TotalCycles returns the sum of cycles over all cores (total work).
func (s *SoC) TotalCycles() Cycles {
	var t Cycles
	for _, co := range s.cores {
		t += Cycles(co.cycles.Load())
	}
	return t
}

// Reset zeroes every core counter and DMEM.
func (s *SoC) Reset() {
	for _, co := range s.cores {
		co.Reset()
	}
}
