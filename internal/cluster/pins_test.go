package cluster_test

import (
	"math"
	"testing"

	"rapid/internal/cluster"
	"rapid/internal/qef"
	"rapid/internal/tpch"
)

// TestTrayBillPins: what a 4-node ModeDPU run of TPC-H Q5 bills, captured at
// commit be404d6 — before the bill was read through qef.Usage — by running
// this query there and printing the result. Integers must match exactly;
// seconds and EnergyNJ to 1e-9 relative, because the bus-lane float sums are
// taken in unit-completion order (ROADMAP item 2).
func TestTrayBillPins(t *testing.T) {
	tray := newTray(t, tpchHost(t), cluster.Config{Nodes: 4})
	q, _ := tpch.QueryByName("Q5")
	res, err := tray.Query(q.SQL, cluster.QueryOptions{Mode: qef.ModeDPU, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	near := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, parent returned %v", what, got, want)
		}
	}
	if res.TotalCycles != 833840 || res.DMEMHighWater != 16384 || res.TilesPruned != 0 || res.Energy.ActivityFJ != 70245156000 {
		t.Errorf("TotalCycles/DMEMHighWater/TilesPruned/ActivityFJ = %d/%d/%d/%d, parent returned 833840/16384/0/70245156000",
			res.TotalCycles, res.DMEMHighWater, res.TilesPruned, res.Energy.ActivityFJ)
	}
	near("SimSeconds", res.SimSeconds, 0.00011302136821705426)
	near("NodeSimSeconds", res.NodeSimSeconds, 2.6765276356589148e-05)
	near("CoordSimSeconds", res.CoordSimSeconds, 9.929186046511628e-08)
	near("EnergyNJ", float64(res.EnergyNJ), 1426501)
	for i, want := range []cluster.NodeStats{
		{Cycles: 203803, DMSReadBytes: 68362, DMSWriteBytes: 100952, SimSeconds: 2.6765276356589148e-05},
		{Cycles: 199729, DMSReadBytes: 65794, DMSWriteBytes: 98776, SimSeconds: 2.5237013178294575e-05},
		{Cycles: 219391, DMSReadBytes: 71906, DMSWriteBytes: 104400, SimSeconds: 2.612811666666667e-05},
		{Cycles: 210872, DMSReadBytes: 67914, DMSWriteBytes: 100104, SimSeconds: 2.2397197286821705e-05},
	} {
		got := res.PerNode[i]
		near("PerNode SimSeconds", got.SimSeconds, want.SimSeconds)
		got.SimSeconds = want.SimSeconds
		if got != want {
			t.Errorf("node %d billed %+v, parent returned %+v", i, got, want)
		}
	}
}
