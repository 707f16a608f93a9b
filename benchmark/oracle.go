package main

import (
	"fmt"
	"hash/fnv"
	"strings"

	"rapid/internal/cluster"
	"rapid/internal/obs"
	"rapid/internal/power"
	"rapid/internal/qef"
)

// digest is an order-insensitive fingerprint of a result: the row count and
// the wrapping sum of every rendered row's hash. Row order is not part of
// it because CollectSink emits tiles in completion order (ROADMAP item 1);
// a bag compare is the portable check, as in the repository's own
// cross-engine tests.
type digest struct {
	rows int
	sum  uint64
}

func (v relView) digest() digest {
	d := digest{rows: v.rows}
	var sb strings.Builder
	for r := 0; r < v.rows; r++ {
		sb.Reset()
		for c := 0; c < v.cols; c++ {
			sb.WriteString(v.cell(r, c))
			sb.WriteByte('|')
		}
		h := fnv.New64a()
		h.Write([]byte(sb.String()))
		d.sum += h.Sum64()
	}
	return d
}

// simStats accumulates what the ModeDPU pass contributes to the paper's
// currencies: simulated time, modeled energy and the counters behind them.
type simStats struct {
	simSec      float64
	energyJ     float64
	cycles      int64
	dmemHigh    int // max over the statements
	tilesTotal  int64
	tilesPruned int64
	// tray only
	netBytes, movedRows       int64
	netSec, nodeSec, coordSec float64
	shardsPruned              int
}

// simulate runs one statement in ModeDPU with the cache bypassed and
// profiling on, checks the profile invariants, and adds the execution's
// simulated cost to st and its per-operator cycles to opCycles.
func (e *engine) simulate(sql string, opCycles map[string]float64, st *simStats) (relView, error) {
	if e.kind == engineTray {
		r, err := e.tray.Query(sql, cluster.QueryOptions{Mode: qef.ModeDPU, NoCache: true, Trace: true})
		if err != nil {
			return relView{}, err
		}
		for _, step := range r.Trace {
			for _, p := range step.NodeProfiles {
				if err := checkProfile(p, false, opCycles, st); err != nil {
					return relView{}, fmt.Errorf("%s: %w", step.Label, err)
				}
			}
			if err := checkProfile(step.Coord, false, opCycles, st); err != nil {
				return relView{}, fmt.Errorf("%s: %w", step.Label, err)
			}
		}
		st.add(r.SimSeconds, r.Energy.TotalJoules(), r.TotalCycles, r.DMEMHighWater)
		st.netBytes += r.NetBytes
		st.netSec += r.NetSeconds
		st.nodeSec += r.NodeSimSeconds
		st.coordSec += r.CoordSimSeconds
		st.shardsPruned += r.ShardsPruned
		for _, ex := range r.Exchanges {
			st.movedRows += ex.MovedRows
		}
		return viewOf(r.Rel), nil
	}
	opts := socOptions(qef.ModeDPU)
	opts.Profile = true
	r, err := e.host.Query(sql, opts)
	if err != nil {
		return relView{}, err
	}
	if r.Profile == nil || !r.HasEnergy {
		return relView{}, fmt.Errorf("ModeDPU execution returned no profile or energy (%s)", r.ProfileNote)
	}
	if err := checkProfile(r.Profile, true, opCycles, st); err != nil {
		return relView{}, err
	}
	st.add(r.RapidSimSeconds, r.Energy.TotalJoules(), r.Cycles, r.DMEMHighWater)
	return viewOf(r.Rel), nil
}

func (st *simStats) add(simSec, energyJ float64, cycles int64, dmemHigh int) {
	st.simSec += simSec
	st.energyJ += energyJ
	st.cycles += cycles
	if dmemHigh > st.dmemHigh {
		st.dmemHigh = dmemHigh
	}
}

// checkProfile runs the profile's cycle/row/tile invariants — and, for a
// whole-query profile, the energy invariants — and accumulates its operator
// cycles and tile counts. Tray fragment profiles skip the energy check: the
// provisioned-power bound is a whole-query property, and a coordinator
// fragment with zero simulated time cannot carry it.
func checkProfile(p *obs.Profile, wholeQuery bool, opCycles map[string]float64, st *simStats) error {
	if p == nil { // a node that did not run this fragment
		return nil
	}
	if err := p.CheckInvariants(); err != nil {
		return err
	}
	if wholeQuery {
		if err := p.CheckEnergyInvariants(power.DefaultEnergyModel()); err != nil {
			return err
		}
	}
	for _, op := range p.Summary().Ops {
		opCycles[opBucket(op.Name)] += float64(op.Cycles)
	}
	st.tilesTotal += p.TilesTotal()
	st.tilesPruned += p.TilesPruned()
	return nil
}

// opBuckets are the operator names the per-layer ops.* metrics report;
// anything else (Stream, Limit, Relation, SetOp, Window) lands in Other so
// the operator metrics still sum to the whole.
var opBuckets = []string{"Scan", "Filter", "Project", "ScalarAgg", "GroupBy", "GroupByPartitioned",
	"HashJoin", "Sort", "TopK", "Collect", "Other"}

func opBucket(name string) string {
	if strings.HasPrefix(name, "Scan(") {
		return "Scan"
	}
	for _, b := range opBuckets {
		if b == name {
			return b
		}
	}
	return "Other"
}
