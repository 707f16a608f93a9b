package power

import (
	"math"
	"testing"
)

func TestEnergyModelDerivation(t *testing.T) {
	m := DefaultEnergyModel()
	// CoreFJPerCycle must be exactly the §2 figures: 51 mW at 800 MHz.
	wantFJ := dpCoreWatts / 800e6 * FJPerJoule
	if float64(m.CoreFJPerCycle) != wantFJ {
		t.Fatalf("CoreFJPerCycle = %d, want %g", m.CoreFJPerCycle, wantFJ)
	}
	if m.Provisioned.Watts != DPU().Watts {
		t.Fatal("provisioned model is not the DPU")
	}
}

func TestActivityNeverExceedsProvisioned(t *testing.T) {
	// Full-tilt interval: 32 cores busy every cycle for one second, both
	// DDR lanes saturated at the channel peak. Activity energy must stay
	// under the 5.8 W provisioned joule budget — this is what makes the
	// provisioned perf/watt a recoverable bound on every real query.
	m := DefaultEnergyModel()
	const sec = 1.0
	cycles := int64(32 * 800e6 * sec)
	bytes := int64(12.9e9 * sec)
	b := m.Activity(cycles, bytes, bytes, sec)
	if b.TotalJoules() >= m.ProvisionedJoules(sec) {
		t.Fatalf("full-tilt activity %.3f J exceeds provisioned %.3f J",
			b.TotalJoules(), m.ProvisionedJoules(sec))
	}
	// Core share at full tilt is 32 x 51 mW.
	if got := float64(b.CoreFJ) / FJPerJoule; math.Abs(got-1.632) > 1e-9 {
		t.Fatalf("core energy = %v J, want 1.632", got)
	}
}

func TestBreakdownArithmetic(t *testing.T) {
	m := DefaultEnergyModel()
	b := m.Activity(1000, 64, 32, 2e-6)
	core, rd, wr := m.ActivityFJ(1000, 64, 32)
	if b.CoreFJ != core || b.DMSReadFJ != rd || b.DMSWriteFJ != wr {
		t.Fatal("Activity and ActivityFJ disagree")
	}
	if b.ActivityFJ() != core+rd+wr {
		t.Fatal("ActivityFJ sum")
	}
	if math.Abs(b.IdleJ-m.UncoreIdleWatts*2e-6) > 1e-18 {
		t.Fatal("idle energy")
	}
	if math.Abs(b.TotalJoules()-(b.ActivityJoules()+b.IdleJ)) > 1e-18 {
		t.Fatal("total joules")
	}
	// 61,149,000,000 fJ is 61,149 nJ exactly; through float joules it
	// floors to 61,148.
	if act, idle := NanoJoules(61_149_000_000, 2e-6); act != 61_149 || idle != 2000 {
		t.Fatalf("NanoJoules = %d, %d; want 61149, 2000", act, idle)
	}
}

func TestPerfPerWattFromEnergyReducesToProvisioned(t *testing.T) {
	m := DefaultEnergyModel()
	// With provisioned energy as the denominator, the energy form must
	// equal the classic (time x watts) ratio.
	refSec, dpuSec := 0.1, 0.3
	classic := PerfPerWattRatio(dpuSec, m.Provisioned.Watts, refSec, SystemXServer().Watts)
	viaEnergy := PerfPerWattFromEnergy(refSec, SystemXServer(), m.ProvisionedJoules(dpuSec))
	if math.Abs(classic-viaEnergy) > 1e-12*classic {
		t.Fatalf("classic %v != energy form %v", classic, viaEnergy)
	}
	if PerfPerWattFromEnergy(1, SystemXServer(), 0) != 0 {
		t.Fatal("degenerate energy")
	}
}
