package obs

import (
	"fmt"

	"rapid/internal/power"
)

// Per-operator energy attribution. The profile already reconciles cycles
// and DMS bytes exactly against the whole-query counters; pricing both
// sides with the integer femtojoule rates of power.EnergyModel preserves
// that exactness, so "per-span joules sum to whole-query joules" is an
// invariant checked without tolerance. The uncore/idle floor belongs to
// the query as a whole (cores idle inside an operator still burn it), so
// it appears only in the query breakdown, never in a span.

// defaultEnergyModel is the model used where no explicit one is threaded
// (Summary, Format).
func defaultEnergyModel() power.EnergyModel { return power.DefaultEnergyModel() }

func fjJoules(fj int64) float64 { return float64(fj) / power.FJPerJoule }

// SpanEnergy is one operator's priced activity.
type SpanEnergy struct {
	CoreFJ     int64
	DMSReadFJ  int64
	DMSWriteFJ int64
}

// ActivityFJ returns the span's total activity energy in femtojoules.
func (e SpanEnergy) ActivityFJ() int64 { return e.CoreFJ + e.DMSReadFJ + e.DMSWriteFJ }

// EnergyReport prices a finalized profile under an energy model.
type EnergyReport struct {
	// Spans holds per-operator activity energy, index-aligned with the
	// profile's Defs.
	Spans []SpanEnergy
	// Query is the whole-query breakdown priced from the frozen totals
	// (including the idle floor over the simulated interval).
	Query power.Breakdown
	// ProvisionedJ is the §7.4 provisioned-power energy of the same
	// interval, the upper bound on Query.TotalJoules().
	ProvisionedJ float64
	// RowsOut is the root operator's output cardinality, for joules/row.
	RowsOut int64
}

// SpanActivityFJ sums the per-span activity energies.
func (r EnergyReport) SpanActivityFJ() int64 {
	var t int64
	for _, s := range r.Spans {
		t += s.ActivityFJ()
	}
	return t
}

// JoulesPerRow returns total energy per result row (0 for no rows).
func (r EnergyReport) JoulesPerRow() float64 {
	if r.RowsOut <= 0 {
		return 0
	}
	return r.Query.TotalJoules() / float64(r.RowsOut)
}

// Energy prices the profile's spans and totals under m. Valid on any
// profile; only DPU-mode profiles carry non-zero activity (ModeX86 runs
// with the cycle and DMS accounting off).
func (p *Profile) Energy(m power.EnergyModel) EnergyReport {
	var rep EnergyReport
	if p == nil {
		return rep
	}
	rep.Spans = make([]SpanEnergy, len(p.Defs))
	for i := range p.Defs {
		c := p.spans[i].fold()
		core, rd, wr := m.ActivityFJ(c.cycles, c.readBytes, c.writeBytes)
		rep.Spans[i] = SpanEnergy{CoreFJ: core, DMSReadFJ: rd, DMSWriteFJ: wr}
		if i == 0 {
			rep.RowsOut = c.rowsOut
		}
	}
	rep.Query = m.Activity(p.TotalCycles(), p.totals.DMSReadBytes, p.totals.DMSWriteBytes, p.totals.SimSeconds)
	rep.ProvisionedJ = m.ProvisionedJoules(p.totals.SimSeconds)
	return rep
}

// CheckEnergyInvariants verifies the energy decomposition of a finalized
// profile:
//
//  1. per-span activity joules sum *exactly* (integer femtojoules, no
//     tolerance) to the whole-query activity joules priced from the
//     engine's own counters;
//  2. on DPU profiles, total energy (activity + idle floor) never exceeds
//     the provisioned-power energy of the same simulated interval — the
//     Fig 14 provisioned methodology stays recoverable as a bound.
func (p *Profile) CheckEnergyInvariants(m power.EnergyModel) error {
	if p == nil {
		return nil
	}
	if !p.finalized {
		return fmt.Errorf("obs: profile not finalized")
	}
	rep := p.Energy(m)
	if got, want := rep.SpanActivityFJ(), rep.Query.ActivityFJ(); got != want {
		return fmt.Errorf("obs: span energies sum to %d fJ, whole-query activity is %d fJ", got, want)
	}
	if p.isDPU() {
		if total, bound := rep.Query.TotalJoules(), rep.ProvisionedJ; total > bound {
			return fmt.Errorf("obs: activity energy %g J exceeds provisioned bound %g J (sim %gs at %g W)",
				total, bound, p.totals.SimSeconds, m.Provisioned.Watts)
		}
	}
	return nil
}
