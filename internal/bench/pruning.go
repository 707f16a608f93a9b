package bench

import (
	"fmt"

	"rapid/internal/hostdb"
	"rapid/internal/qef"
	"rapid/internal/tpch"
)

// Zone-map pruning effectiveness experiment (DESIGN.md §9): lineitem is
// loaded in l_shipdate order — the layout a date-partitioned warehouse
// table would have — so each 1024-row tile covers a narrow date band and
// the shipdate-range queries (Q6, Q14) can skip most tiles outright. Each
// query runs twice in ModeDPU, pruning on (profiled) and pruning force-
// disabled, proving three properties at once: the skip rate, identical
// answers, and strictly lower billing on the pruned run.

// PruningRun is the measured pruning effectiveness of one query.
type PruningRun struct {
	Query       string
	TilesTotal  int64
	TilesPruned int64
	// CyclesOn/CyclesOff are the billed dpCore cycles with pruning enabled
	// and force-disabled; skipped tiles are unbilled, so On < Off whenever
	// anything was pruned.
	CyclesOn  int64
	CyclesOff int64
}

// SkipRate is the fraction of scannable tiles the zone maps rejected.
func (p PruningRun) SkipRate() float64 {
	if p.TilesTotal == 0 {
		return 0
	}
	return float64(p.TilesPruned) / float64(p.TilesTotal)
}

// runPruning executes pruningQueries with zone-map pruning on and off on a
// database whose lineitem is clustered on l_shipdate, checks the runs agree,
// and reports tile counts and billed cycles.
func runPruning(db *hostdb.Database) ([]PruningRun, error) {
	var out []PruningRun
	for _, qname := range pruningQueries {
		q, ok := tpch.QueryByName(qname)
		if !ok {
			return nil, fmt.Errorf("unknown query %s", qname)
		}
		on, err := db.Query(q.SQL, hostdb.QueryOptions{
			Mode: hostdb.ForceOffload, RapidMode: qef.ModeDPU,
			FailOnInadmissible: true, Profile: true,
		})
		if err != nil {
			return nil, fmt.Errorf("%s pruned: %w", qname, err)
		}
		if on.Profile == nil {
			return nil, fmt.Errorf("%s: no profile (%s)", qname, on.ProfileNote)
		}
		if err := on.Profile.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("%s: profile invariants: %w", qname, err)
		}
		off, err := db.Query(q.SQL, hostdb.QueryOptions{
			Mode: hostdb.ForceOffload, RapidMode: qef.ModeDPU,
			FailOnInadmissible: true, DisablePruning: true,
		})
		if err != nil {
			return nil, fmt.Errorf("%s unpruned: %w", qname, err)
		}
		if on.Rel.Rows() != off.Rel.Rows() {
			return nil, fmt.Errorf("%s: pruning changed the answer: %d vs %d rows",
				qname, on.Rel.Rows(), off.Rel.Rows())
		}
		out = append(out, PruningRun{
			Query:       qname,
			TilesTotal:  on.Profile.TilesTotal(),
			TilesPruned: on.Profile.TilesPruned(),
			CyclesOn:    on.Cycles,
			CyclesOff:   off.Cycles,
		})
	}
	return out, nil
}

// pruningTable renders the pruning experiment as a report table.
func pruningTable(runs []PruningRun) *Table {
	t := &Table{
		Title:   "Zone-map pruning: shipdate-clustered lineitem, ModeDPU (pruning on vs force-disabled)",
		Headers: []string{"query", "tiles pruned/total", "skip rate", "Mcycles on", "Mcycles off", "cycles saved"},
	}
	for _, r := range runs {
		saved := 0.0
		if r.CyclesOff > 0 {
			saved = 1 - float64(r.CyclesOn)/float64(r.CyclesOff)
		}
		t.AddRow(r.Query,
			fmt.Sprintf("%d/%d", r.TilesPruned, r.TilesTotal),
			fmt.Sprintf("%.1f%%", 100*r.SkipRate()),
			f2(float64(r.CyclesOn)/1e6),
			f2(float64(r.CyclesOff)/1e6),
			fmt.Sprintf("%.1f%%", 100*saved))
	}
	t.AddNote("skipped tiles are unbilled (no DMEM admission, DMS traffic, cycles or energy); both runs returned identical results")
	return t
}
