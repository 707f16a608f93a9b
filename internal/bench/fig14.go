package bench

import (
	"fmt"

	"rapid/internal/hostdb"
	"rapid/internal/power"
	"rapid/internal/qef"
	"rapid/internal/tpch"
)

// Fig 14 split by currency. The paper's headline is
//
//	perf/watt = SW speedup (wall) x chip speed ratio (model/sim) x chip power ratio
//
// Only the first factor depends on the machine that runs this repository;
// benchmark/ measures it (hostdb.sw_speedup). The other two are pure
// functions of the tree and are what this file regenerates, per query.

// QueryRun is one TPC-H query on the simulated DPU, in sim and model
// currency.
type QueryRun struct {
	Name string
	// Cycles and DMSBytes are the work counters both times derive from:
	// dpCore cycles summed over cores, DMS bytes read and written. Exact
	// integers, so the golden file sees a cost-model edit too small to move
	// a rounded millisecond.
	Cycles      int64
	DMSBytes    int64
	SimDPUSec   float64 // RAPID on the simulated DPU
	X86ModelSec float64 // the same work counters modeled on a dual-socket x86
	// EnergyJ is the activity-model energy of the run (dpCore cycles + DMS
	// bytes + idle floor); ProvisionedJ is the 5.8 W envelope over SimDPUSec
	// that bounds it.
	EnergyJ      float64
	ProvisionedJ float64
}

// ChipSpeedRatio is the speed of one DPU against the dual-socket server when
// both run the same RAPID software: x86-model time / DPU-sim time. The
// paper's numbers imply ~0.12 (0.3 per chip against System X, over the 2.5x
// software speedup).
func (q QueryRun) ChipSpeedRatio() float64 {
	if q.SimDPUSec <= 0 {
		return 0
	}
	return q.X86ModelSec / q.SimDPUSec
}

// PerfPerWatt is the deterministic part of Fig 14 with the DPU charged its
// provisioned power: ChipSpeedRatio x the ~50x chip power ratio. Multiply by
// the software speedup for the paper's figure.
func (q QueryRun) PerfPerWatt() float64 {
	return power.PerfPerWattRatio(q.SimDPUSec, power.DPU().Watts, q.X86ModelSec, power.SystemXServer().Watts)
}

// ActivityPerfPerWatt is PerfPerWatt with the DPU charged its activity-model
// energy instead. Activity energy never exceeds provisioned energy, so this
// is always >= PerfPerWatt — the provisioned figure is the recoverable lower
// bound.
func (q QueryRun) ActivityPerfPerWatt() float64 {
	return power.PerfPerWattFromEnergy(q.X86ModelSec, power.SystemXServer(), q.EnergyJ)
}

// runQueries executes every TPC-H query in ModeDPU with profiling on and
// checks the accounting and energy invariants of each profile on the way.
func runQueries(db *hostdb.Database) ([]QueryRun, error) {
	model := power.DefaultEnergyModel()
	var out []QueryRun
	for _, q := range tpch.Queries() {
		res, err := db.Query(q.SQL, hostdb.QueryOptions{
			Mode: hostdb.ForceOffload, RapidMode: qef.ModeDPU,
			FailOnInadmissible: true, Profile: true,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		if res.Profile == nil || !res.HasEnergy {
			return nil, fmt.Errorf("%s: no profile or energy on a ModeDPU offload (%s)", q.Name, res.ProfileNote)
		}
		if err := res.Profile.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("%s: invariants: %w", q.Name, err)
		}
		if err := res.Profile.CheckEnergyInvariants(model); err != nil {
			return nil, fmt.Errorf("%s: energy invariants: %w", q.Name, err)
		}
		totals := res.Profile.Totals()
		out = append(out, QueryRun{
			Name:         q.Name,
			Cycles:       res.Cycles,
			DMSBytes:     totals.DMSReadBytes + totals.DMSWriteBytes,
			SimDPUSec:    res.RapidSimSeconds,
			X86ModelSec:  res.X86ModelSeconds,
			EnergyJ:      res.Energy.TotalJoules(),
			ProvisionedJ: model.ProvisionedJoules(res.RapidSimSeconds),
		})
	}
	return out, nil
}

// fig14Table renders the deterministic factors of Figure 14.
func fig14Table(runs []QueryRun) *Table {
	t := &Table{
		Title: "Fig 14: Performance per watt, RAPID vs x86 — the deterministic factors (model and sim)",
		Headers: []string{"query", "dpCore cycles", "DMS bytes", "x86-model ms", "DPU-sim ms", "chip speed (model/sim)",
			"perf/watt at 1x software", "energy mJ", "provisioned mJ", "perf/watt at 1x software (activity)"},
	}
	var sumRatio, sumPPW, sumAct float64
	for _, r := range runs {
		t.AddRow(r.Name, fmt.Sprint(r.Cycles), fmt.Sprint(r.DMSBytes),
			f3(r.X86ModelSec*1e3), f3(r.SimDPUSec*1e3), f3(r.ChipSpeedRatio()),
			f1(r.PerfPerWatt()), f3(r.EnergyJ*1e3), f3(r.ProvisionedJ*1e3), f1(r.ActivityPerfPerWatt()))
		sumRatio += r.ChipSpeedRatio()
		sumPPW += r.PerfPerWatt()
		sumAct += r.ActivityPerfPerWatt()
	}
	n := float64(len(runs))
	t.AddPoint("average chip speed at equal software (x86-model / DPU-sim)", "~0.12 (0.3 per chip / 2.5x software)", 0.04, 0.36, sumRatio/n)
	t.AddNote("perf/watt (paper: 10x-25x, avg ~15x) = software speedup (wall; hostdb.sw_speedup of `bash benchmark/run.sh`, paper 2.5x) x chip speed x chip power ratio (%s %.0fW / %s %.1fW = %.1f)",
		power.SystemXServer().Name, power.SystemXServer().Watts, power.DPU().Name, power.DPU().Watts, power.ChipPowerRatio())
	t.AddNote("average perf/watt at 1x software: %.1fx provisioned, %.1fx activity (paper implies ~6x = 15x / 2.5x); node speedup at 1x software (%d DPUs): %.1fx",
		sumPPW/n, sumAct/n, power.RapidNodeDPUs, power.RapidNodeDPUs*sumRatio/n)
	t.AddNote("activity columns charge the DPU its modeled energy; provisioned power bounds it on every query (checked with the profile invariants), so the activity figure is always >= the provisioned one")
	return t
}
