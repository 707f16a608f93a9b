package power

import (
	"math"
	"testing"
)

// dpCoreWatts is one dpCore's dynamic power at 800 MHz (paper §2).
const dpCoreWatts = 0.051

func TestModels(t *testing.T) {
	if DPU().Watts != 5.8 {
		t.Fatal("DPU watts")
	}
	// 32 cores' dynamic power (51 mW each, §2) is well under the SoC
	// provisioned figure (DMS, caches, uncore take the rest).
	if 32*dpCoreWatts >= DPU().Watts {
		t.Fatal("core power exceeds SoC budget")
	}
	if SystemXServer().Watts != 290 {
		t.Fatal("server watts")
	}
	if ChipPowerRatio() != 50 {
		t.Fatalf("chip power ratio = %v, want 290 / 5.8", ChipPowerRatio())
	}
}

func TestPowerRatioMatchesPaperArithmetic(t *testing.T) {
	// §7.4: 15X perf/watt = 8.5X speedup x power ratio, so the server must
	// draw ~1.76x the 28-DPU node it is compared against.
	r := SystemXServer().Watts / (RapidNodeDPUs * DPU().Watts)
	if math.Abs(r-15.0/8.5) > 0.03 {
		t.Fatalf("power ratio = %.3f, want ~%.3f", r, 15.0/8.5)
	}
}

func TestPerfPerWatt(t *testing.T) {
	// A system 2x faster at half the power is 4x perf/watt.
	if got := PerfPerWattRatio(1, 50, 2, 100); got != 4 {
		t.Fatalf("ratio = %v", got)
	}
	if PerfPerWattRatio(0, 0, 1, 1) != 0 {
		t.Fatal("degenerate")
	}
	if Energy(2, DPU()) != 11.6 {
		t.Fatal("energy")
	}
}
