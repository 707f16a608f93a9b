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
// byte rule leaves alone — was the bill at 092e803, before exchanges were
// decided by bytes and moved as columns: neither may move the bill of a plan
// they do not change. It was re-captured when plans became narrowed to their
// live columns (plan.Live): lineitem's pipeline collects l_orderkey and
// l_shipmode instead of its five filtered columns and the join outputs two
// columns instead of seven, 130811 → 130281 cycles; the makespan, bound by
// the scan's DMS reads, is unchanged. It was re-captured when each operator
// began evaluating one shared expression program: its two
// SUM(CASE ... THEN 1 ELSE 0 END) states fill the constants 1 and 0 once per
// tile instead of twice, 130281 → 130069 cycles, and the busiest node, now
// bound by its cores, finishes 70 ns sooner.
//
// Q5 was re-captured when exchanges became decided by bytes (it was pinned at
// be404d6 as 833840 cycles, 1426501 nJ, 27696 bytes on the link): its last
// join used to shuffle the 356-row, 14-column join output to customer's
// partitioning; it now broadcasts customer (300 rows × 2 columns) instead.
// The link carries 14528 bytes, modeled time and energy drop, and every node
// spends a few percent more cycles building over all of customer rather than
// a quarter of it. It was re-captured again when plans became narrowed to
// their live columns (plan.Live): each join outputs only what is read above
// it (22 columns over the five joins instead of 58), and the link carries
// 9984 bytes; 866192 → 775958 cycles. It was re-captured once more when each
// operator began evaluating one shared expression program with constants
// folded: 1 - l_discount no longer scales its constant 1 to 100 with a
// multiply on every row, 775958 → 775866 cycles; bytes are unchanged.
//
// Both were re-captured when a pipeline came to be lowered only where it does
// work: the coordinator no longer streams and collects the merged groups to
// select their columns. No node's bill and no cycle moves; the coordinator's
// modeled time falls (Q12 74.0 → 15.0 ns, Q5 99.3 → 56.3 ns), and with it
// the makespan and energy, and the DMEM high water is the nodes' (Q12 12288 →
// 3072 bytes, Q5 16384 → 4096): the copy's Collect staged the widest tiles.
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
			query: "Q12", cycles: 130069, activityFJ: 12982954750, netBytes: 192, energyNJ: 472530, dmemHighWater: 3072,
			simSeconds: 3.82957011627907e-05, nodeSimSeconds: 2.21271011627907e-05, coordSimSeconds: 1.5e-08,
			perNode: []cluster.NodeStats{
				{Cycles: 34197, DMSReadBytes: 35622, DMSWriteBytes: 12224, SimSeconds: 2.10508511627907e-05},
				{Cycles: 27818, DMSReadBytes: 34944, DMSWriteBytes: 12144, SimSeconds: 2.07008511627907e-05},
				{Cycles: 34832, DMSReadBytes: 36585, DMSWriteBytes: 12224, SimSeconds: 2.21271011627907e-05},
				{Cycles: 33210, DMSReadBytes: 35391, DMSWriteBytes: 12256, SimSeconds: 2.11258511627907e-05},
			},
		},
		{
			query: "Q5", cycles: 775866, activityFJ: 66395697500, netBytes: 9984, energyNJ: 1235299, dmemHighWater: 4096,
			simSeconds: 9.740872635658915e-05, nodeSimSeconds: 2.5365276356589145e-05, coordSimSeconds: 5.625e-08,
			perNode: []cluster.NodeStats{
				{Cycles: 189663, DMSReadBytes: 67530, DMSWriteBytes: 100048, SimSeconds: 2.5365276356589145e-05},
				{Cycles: 187149, DMSReadBytes: 65170, DMSWriteBytes: 97936, SimSeconds: 2.3968028294573642e-05},
				{Cycles: 202965, DMSReadBytes: 71178, DMSWriteBytes: 103488, SimSeconds: 2.4899209302325583e-05},
				{Cycles: 196044, DMSReadBytes: 67706, DMSWriteBytes: 99152, SimSeconds: 2.1425402325581395e-05},
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
