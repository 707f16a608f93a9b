package main

import (
	"math"
	"sync"
	"time"
)

// The calibration kernel is the benchmark's yardstick: one execution is
// 1 cu (calibration unit). Noise on a shared box is phase-like — for tens of
// seconds every process runs 20–70 % slower, and cross-core wake-ups slow
// down with it — so no percentile of raw wall time repeats within a tenth,
// but the ratio of a statement's wall time to a kernel timed around the same
// moment does. The kernel is FROZEN: changing its sizes, its arithmetic or
// its round structure re-bases every cu number ever recorded.
//
// Shape: calRounds barrier-synchronised rounds; in each, every worker gets a
// fixed slice of a 1 Mi-element array, multiply-hashes each element and
// bumps a slot of a private 64 Ki-entry table. Work is pre-assigned and
// every round ends on its slower worker, as a batch of the engine's work
// units ends on its slower strand; the goroutine hand-offs between rounds
// are what makes the kernel feel a slow phase the way a query does (a kernel
// with one round tracked query time about half as well on the sizing box,
// one with 512 rounds over-reacted; see README.md). It allocates only the
// rounds' goroutines — no heap growth, so no GC cycle starts inside it.
const (
	calElems     = 1 << 20 // 8 MiB of uint64: streams past every cache level
	calTableSize = 1 << 16 // 256 KiB of uint32 per worker: L2-resident random increments
	calSweeps    = 2       // the array is swept twice per execution
	calRounds    = 64
)

// Calibration schedule. Before every pass: one discarded execution (the
// collection that opens the pass leaves the caches cold), then at least
// calMinPerPass timed ones, more after a long pass so that about calShare of
// the run's time goes into the yardstick however long a pass is.
const (
	calMinPerPass = 3
	calMaxPerPass = 40
	calShare      = 0.10
	// calWindow: a pass is measured against the kernel executions timed
	// within this long of its start — its own and its neighbours' — so short
	// passes share samples while a phase change mid-run still moves the
	// yardstick with the statements.
	calWindow = 2 * time.Second
	// calPerSetup executions are timed before every set-up and after the
	// last; a set-up is measured against the ones on either side of it.
	calPerSetup = 8
	// calNominalMs is the kernel's quiet-phase time on the sizing box.
	// setup_s is reported in seconds at that nominal speed — wall seconds ×
	// calNominalMs ÷ the kernel's time around the set-up — because its unit
	// has to be seconds and raw seconds swing 50 % between phases.
	calNominalMs = 4.5
)

// calibrator owns the kernel's buffers.
type calibrator struct {
	data   []uint64
	tables [][]uint32
}

func newCalibrator(workers int) *calibrator {
	c := &calibrator{data: make([]uint64, calElems), tables: make([][]uint32, workers)}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range c.data {
		// splitmix64: a fixed, well-mixed fill independent of any seed.
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		c.data[i] = z ^ (z >> 31)
	}
	for w := range c.tables {
		c.tables[w] = make([]uint32, calTableSize)
	}
	return c
}

// run executes the kernel once and returns its wall time.
func (c *calibrator) run() time.Duration {
	workers := len(c.tables)
	slice := calSweeps * len(c.data) / calRounds / workers
	start := time.Now()
	for r := 0; r < calRounds; r++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := (r*workers + w) * slice % (len(c.data) - slice + 1)
			wg.Add(1)
			go func(part []uint64, table []uint32) {
				defer wg.Done()
				for _, v := range part {
					table[(v*0x9E3779B97F4A7C15)>>(64-16)]++
				}
			}(c.data[lo:lo+slice], c.tables[w])
		}
		wg.Wait()
	}
	return time.Since(start)
}

// sample discards one execution and times the next n, in milliseconds.
func (c *calibrator) sample(n int) []float64 {
	c.run()
	walls := make([]float64, n)
	for i := range walls {
		walls[i] = ms(c.run())
	}
	return walls
}

// calCount is how many executions to time before a pass, given the previous
// pass's wall time and the kernel's recent mean.
func calCount(prevPassMs, kernelMs float64) int {
	if kernelMs <= 0 {
		return calMinPerPass
	}
	n := int(math.Ceil(calShare * prevPassMs / kernelMs))
	if n < calMinPerPass {
		return calMinPerPass
	}
	if n > calMaxPerPass {
		return calMaxPerPass
	}
	return n
}

// yardsticks returns, per pass, the milliseconds of 1 cu: the mean over
// every kernel execution timed within calWindow of the pass's start. A query
// integrates over the box's jitter, so the mean — not the median — of the
// short kernel is its like; single samples are clipped at four times the
// window's median so one stall cannot carry a window.
func yardsticks(passes []passSample) []float64 {
	out := make([]float64, len(passes))
	for k, pk := range passes {
		var walls []float64
		for _, p := range passes {
			if d := p.StartMs - pk.StartMs; d >= -ms(calWindow) && d <= ms(calWindow) {
				walls = append(walls, p.Cal...)
			}
		}
		limit := 4 * median(walls)
		var sum float64
		for _, w := range walls {
			sum += math.Min(w, limit)
		}
		out[k] = sum / float64(len(walls))
	}
	return out
}
