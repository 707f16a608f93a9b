// Package power provides the provisioned-power models behind the paper's
// performance-per-watt results (§7.4). The paper reports "performance per
// watt based on the CPU power alone"; these models follow that methodology.
package power

// Model is a provisioned power figure for one processing element.
type Model struct {
	Name  string
	Watts float64
}

// DPU is one RAPID DPU SoC: 5.8 W provisioned at 40 nm (paper §2).
func DPU() Model { return Model{Name: "RAPID DPU", Watts: 5.8} }

// XeonE5 is one Intel E5-2699 socket (145 W TDP).
func XeonE5() Model { return Model{Name: "Xeon E5-2699", Watts: 145} }

// SystemXServer is the dual-socket server System X runs on (§7.4).
func SystemXServer() Model {
	return Model{Name: "System X (2x E5-2699)", Watts: 2 * XeonE5().Watts}
}

// RapidNodeDPUs is the number of DPUs in one RAPID node tray. The paper's
// numbers reconcile at this sizing: per chip, one 5.8 W DPU runs at ~0.3x
// the speed of the 290 W dual-socket server (hence ~15x performance/watt,
// Fig 14), and a 28-DPU node is then 0.3 x 28 = 8.5x faster than the
// server — the §7.4 total speedup that decomposes into 2.5x software x
// 3.4x hardware.
const RapidNodeDPUs = 28

// ChipPowerRatio returns SystemXServer / DPU provisioned power (~50x): the
// factor converting the per-chip speed ratio into Fig 14's
// performance/watt.
func ChipPowerRatio() float64 { return SystemXServer().Watts / DPU().Watts }

// PerfPerWattRatio compares two (time, power) pairs: how much more work per
// joule the first configuration delivers.
func PerfPerWattRatio(timeA, wattsA, timeB, wattsB float64) float64 {
	if timeA <= 0 || wattsA <= 0 {
		return 0
	}
	return (timeB * wattsB) / (timeA * wattsA)
}

// Energy returns joules for a run time under a model.
func Energy(seconds float64, m Model) float64 { return seconds * m.Watts }

// The x86 execution model for the hardware-attribution factor of §7.4: the
// same RAPID software running on the dual-socket E5-2699 (16 cores, ~2.3
// GHz all-core, effective IPC 2.5 on these vectorized kernels) against
// ~60 GiB/s effective memory bandwidth across both sockets. Compute and
// memory overlap (hardware prefetchers).
const (
	x86CyclesPerSec   = 16 * 2.3e9 * 2.5
	x86MemBytesPerSec = 60.0 * (1 << 30)
)

// X86ModelSeconds models the dual-socket x86 executing a workload measured
// in dpCore instruction-cycles of compute and bytes of memory traffic.
func X86ModelSeconds(cycles float64, bytes int64) float64 {
	compute := cycles / x86CyclesPerSec
	memory := float64(bytes) / x86MemBytesPerSec
	if compute > memory {
		return compute
	}
	return memory
}
