package cluster_test

import (
	"testing"

	"rapid/internal/cluster"
	"rapid/internal/qef"
	"rapid/internal/tpch"
)

// TestTrayBillPins: what a 4-node ModeDPU run bills, captured by running the
// query and printing the result. Everything must match exactly, the float
// seconds too: each node's bill is per-core sums reduced in core order
// (qef.Context.Usage).
//
// Q12 — a co-partitioned join under a partial aggregation, whose plan the
// byte rule leaves alone — is the bill at 092e803, before exchanges were
// decided by bytes and moved as columns: neither may move the bill of a plan
// they do not change.
//
// Q5 was re-captured when exchanges became decided by bytes (it was pinned at
// be404d6 as 833840 cycles, 1426501 nJ, 27696 bytes on the link): its last
// join used to shuffle the 356-row, 14-column join output to customer's
// partitioning; it now broadcasts customer (300 rows × 2 columns) instead.
// The link carries 14528 bytes, modeled time and energy drop, and every node
// spends a few percent more cycles building over all of customer rather than
// a quarter of it.
func TestTrayBillPins(t *testing.T) {
	tray := newTray(t, tpchHost(t), cluster.Config{Nodes: 4})
	for _, pin := range []struct {
		query                                       string
		cycles, activityFJ, netBytes, energyNJ      int64
		dmemHighWater                               int
		simSeconds, nodeSimSeconds, coordSimSeconds float64
		perNode                                     []cluster.NodeStats
	}{
		{
			query: "Q12", cycles: 130811, activityFJ: 13116609250, netBytes: 192, energyNJ: 474212, dmemHighWater: 12288,
			simSeconds: 3.842474302325582e-05, nodeSimSeconds: 2.21971011627907e-05, coordSimSeconds: 7.404186046511628e-08,
			perNode: []cluster.NodeStats{
				{Cycles: 34393, DMSReadBytes: 36182, DMSWriteBytes: 12560, SimSeconds: 2.1120851162790702e-05},
				{Cycles: 27944, DMSReadBytes: 35304, DMSWriteBytes: 12360, SimSeconds: 2.07458511627907e-05},
				{Cycles: 35028, DMSReadBytes: 37145, DMSWriteBytes: 12560, SimSeconds: 2.21971011627907e-05},
				{Cycles: 33434, DMSReadBytes: 36031, DMSWriteBytes: 12640, SimSeconds: 2.12058511627907e-05},
			},
		},
		{
			query: "Q5", cycles: 866192, activityFJ: 72653196000, netBytes: 14528, energyNJ: 1303415, dmemHighWater: 16384,
			simSeconds: 0.00010256353062015503, nodeSimSeconds: 2.684183875968992e-05, coordSimSeconds: 9.929186046511628e-08,
			perNode: []cluster.NodeStats{
				{Cycles: 209448, DMSReadBytes: 71578, DMSWriteBytes: 100952, SimSeconds: 2.684183875968992e-05},
				{Cycles: 203111, DMSReadBytes: 68722, DMSWriteBytes: 98776, SimSeconds: 2.50336507751938e-05},
				{Cycles: 231574, DMSReadBytes: 75810, DMSWriteBytes: 104400, SimSeconds: 2.6287959302325582e-05},
				{Cycles: 222014, DMSReadBytes: 72266, DMSWriteBytes: 100104, SimSeconds: 2.41529023255814e-05},
			},
		},
	} {
		q, _ := tpch.QueryByName(pin.query)
		res, err := tray.Query(q.SQL, cluster.QueryOptions{Mode: qef.ModeDPU, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		same := func(what string, got, want float64) {
			t.Helper()
			if got != want {
				t.Errorf("%s %s = %v, pinned %v", pin.query, what, got, want)
			}
		}
		if res.TotalCycles != pin.cycles || res.DMEMHighWater != pin.dmemHighWater || res.TilesPruned != 0 ||
			res.Energy.ActivityFJ() != pin.activityFJ || res.NetBytes != pin.netBytes {
			t.Errorf("%s TotalCycles/DMEMHighWater/TilesPruned/ActivityFJ/NetBytes = %d/%d/%d/%d/%d, pinned %d/%d/0/%d/%d", pin.query,
				res.TotalCycles, res.DMEMHighWater, res.TilesPruned, res.Energy.ActivityFJ(), res.NetBytes,
				pin.cycles, pin.dmemHighWater, pin.activityFJ, pin.netBytes)
		}
		same("SimSeconds", res.SimSeconds, pin.simSeconds)
		same("NodeSimSeconds", res.NodeSimSeconds, pin.nodeSimSeconds)
		same("CoordSimSeconds", res.CoordSimSeconds, pin.coordSimSeconds)
		same("EnergyNJ", float64(res.EnergyNJ), float64(pin.energyNJ))
		for i, want := range pin.perNode {
			got := res.PerNode[i]
			same("PerNode SimSeconds", got.SimSeconds, want.SimSeconds)
			got.SimSeconds = want.SimSeconds
			if got != want {
				t.Errorf("%s node %d billed %+v, pinned %+v", pin.query, i, got, want)
			}
		}
	}
}
