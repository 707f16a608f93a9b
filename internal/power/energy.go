package power

// Activity-based energy model: instead of charging the provisioned chip
// power for the whole run (§7.4's methodology, Energy above), energy is
// attributed to the activity the engine actually performed — dpCore cycles,
// DMS bytes over the DDR interface, and the uncore/idle floor for the
// simulated interval. Because the per-cycle and per-byte rates are integer
// femtojoules, per-operator energies reconcile *exactly* against
// whole-query energy whenever the underlying counters do: int64 sums have
// no rounding, so sum_i(cycles_i)*rate == sum_i(cycles_i*rate).
//
// The rates are chosen so that activity energy can never exceed the
// provisioned energy of the same interval: at full tilt (32 cores busy
// every cycle, both DDR lanes saturated) core power is 1.632 W, the DDR
// interface draws under 0.7 W, and the 3 W uncore floor still leaves
// headroom below the 5.8 W provisioned figure. Provisioned perf/watt is
// therefore always recoverable as a lower bound on activity perf/watt.

// FJPerJoule converts femtojoules (the integer energy unit) to joules.
const FJPerJoule = 1e15

// EnergyModel holds the activity energy rates for one DPU.
type EnergyModel struct {
	// CoreFJPerCycle is the dpCore dynamic energy per clock cycle:
	// 51 mW / 800 MHz = 63.75 pJ (paper §2 power figures).
	CoreFJPerCycle int64
	// DMSReadFJPerByte / DMSWriteFJPerByte are the DDR3 interface energy
	// per byte moved (~25 pJ/byte, writes slightly dearer for the bus
	// turnaround and precharge). At the 12.9 GB/s channel peak this is
	// ~0.32 W per direction.
	DMSReadFJPerByte  int64
	DMSWriteFJPerByte int64
	// UncoreIdleWatts is the always-on floor (DMS engines, ATE mesh, DRAM
	// refresh, clock tree) billed for the simulated elapsed interval.
	UncoreIdleWatts float64
	// Provisioned is the whole-chip provisioned power the activity model
	// is bounded by.
	Provisioned Model
}

// DefaultEnergyModel returns the calibrated DPU activity-energy model.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{
		CoreFJPerCycle:    63750, // 0.051 W / 800 MHz
		DMSReadFJPerByte:  24000,
		DMSWriteFJPerByte: 26000,
		UncoreIdleWatts:   3.0,
		Provisioned:       DPU(),
	}
}

// Breakdown is the activity energy of one measured interval, split by
// what consumed it. The activity components are integer femtojoules so
// decompositions reconcile exactly; the idle component is an analog power
// × time product.
type Breakdown struct {
	CoreFJ     int64   // dpCore dynamic energy
	DMSReadFJ  int64   // DDR reads
	DMSWriteFJ int64   // DDR writes
	IdleJ      float64 // uncore/idle floor over the interval
}

// ActivityFJ returns the attributable activity energy in femtojoules.
func (b Breakdown) ActivityFJ() int64 { return b.CoreFJ + b.DMSReadFJ + b.DMSWriteFJ }

// ActivityJoules returns the attributable activity energy in joules.
func (b Breakdown) ActivityJoules() float64 { return float64(b.ActivityFJ()) / FJPerJoule }

// TotalJoules returns activity plus idle energy.
func (b Breakdown) TotalJoules() float64 { return b.ActivityJoules() + b.IdleJ }

// NanoJoules converts an interval's activity femtojoules and idle joules to
// the integer nanojoules the energy counters and journal add, the same way
// for every engine. Activity divides exactly: a round trip through float
// joules can floor one nanojoule low.
func NanoJoules(activityFJ int64, idleJ float64) (activityNJ, idleNJ int64) {
	return activityFJ / 1e6, int64(idleJ * 1e9)
}

// ActivityFJ prices raw activity counters in femtojoules.
func (m EnergyModel) ActivityFJ(cycles, readBytes, writeBytes int64) (coreFJ, readFJ, writeFJ int64) {
	return cycles * m.CoreFJPerCycle, readBytes * m.DMSReadFJPerByte, writeBytes * m.DMSWriteFJPerByte
}

// Activity prices a whole measured interval: activity counters plus the
// idle floor for the simulated elapsed seconds.
func (m EnergyModel) Activity(cycles, readBytes, writeBytes int64, simSeconds float64) Breakdown {
	core, rd, wr := m.ActivityFJ(cycles, readBytes, writeBytes)
	return Breakdown{CoreFJ: core, DMSReadFJ: rd, DMSWriteFJ: wr, IdleJ: m.UncoreIdleWatts * simSeconds}
}

// ProvisionedJoules is the §7.4 provisioned-power energy of the interval —
// the upper bound the activity model stays within.
func (m EnergyModel) ProvisionedJoules(simSeconds float64) float64 {
	return Energy(simSeconds, m.Provisioned)
}

// LinkFJPerByte is the tray interconnect energy per byte exchanged between
// nodes: NIC serdes + switch traversal at roughly 30 pJ/byte, the published
// ballpark for short-reach 10GbE-class links. Integer femtojoules like the
// DMS rates, so exchange energy decompositions reconcile exactly.
const LinkFJPerByte = 30000

// LinkEnergyFJ prices bytes moved over the tray interconnect.
func LinkEnergyFJ(bytes int64) int64 { return bytes * LinkFJPerByte }

// PerfPerWattFromEnergy converts a reference execution (time on the
// comparison system at its provisioned power) and a measured DPU energy
// into the Fig 14 perf/watt ratio: how much more work per joule the DPU
// delivered. With energy = ProvisionedJoules(dpuSeconds) this reduces to
// the provisioned-power methodology; with activity energy it can only be
// higher (the activity bound).
func PerfPerWattFromEnergy(refSeconds float64, ref Model, dpuJoules float64) float64 {
	if dpuJoules <= 0 {
		return 0
	}
	return refSeconds * ref.Watts / dpuJoules
}
