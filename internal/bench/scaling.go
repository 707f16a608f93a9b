package bench

import (
	"fmt"

	"rapid/internal/cluster"
	"rapid/internal/hostdb"
	"rapid/internal/qef"
	"rapid/internal/tpch"
)

// Tray scaling experiment (paper §7.4: the SF1000 configuration shards the
// workload over 8 servers). Each node count gets a fresh tray over the same
// host database; every query runs in ModeDPU so the figure of merit is the
// modeled distributed makespan — slowest node + interconnect + coordinator
// — and the activity+link+idle energy it costs.

// ScalingRun is one (query, node-count) cell of the scaling experiment.
type ScalingRun struct {
	Query      string
	Nodes      int
	SimSeconds float64
	EnergyJ    float64
	NetBytes   int64
	NetSeconds float64
}

// runScaling executes scalingQueries on a tray of each width in trayNodes.
func runScaling(db *hostdb.Database) ([]ScalingRun, error) {
	var runs []ScalingRun
	for _, n := range trayNodes {
		tray, err := cluster.New(db, cluster.Config{Nodes: n})
		if err != nil {
			return nil, err
		}
		for _, name := range tpch.TableNames() {
			if err := tray.Load(name, nil); err != nil {
				tray.Close()
				return nil, fmt.Errorf("load %s on %d nodes: %w", name, n, err)
			}
		}
		for _, qname := range scalingQueries {
			q, ok := tpch.QueryByName(qname)
			if !ok {
				tray.Close()
				return nil, fmt.Errorf("unknown query %s", qname)
			}
			res, err := tray.Query(q.SQL, cluster.QueryOptions{Mode: qef.ModeDPU})
			if err != nil {
				tray.Close()
				return nil, fmt.Errorf("%s on %d nodes: %w", qname, n, err)
			}
			runs = append(runs, ScalingRun{
				Query:      qname,
				Nodes:      n,
				SimSeconds: res.SimSeconds,
				EnergyJ:    res.Energy.TotalJoules(),
				NetBytes:   res.NetBytes,
				NetSeconds: res.NetSeconds,
			})
		}
		tray.Close()
	}
	return runs, nil
}

// scalingTable renders the tray scaling experiment: simulated-throughput
// speedup and energy versus the single-node tray, per query and node count.
func scalingTable(runs []ScalingRun) *Table {
	t := &Table{
		Title:   "Tray scaling: sharded TPC-H over N SoC nodes (ModeDPU, modeled makespan)",
		Headers: []string{"query", "nodes", "sim ms", "speedup", "net KB", "net ms", "energy mJ", "perf/W vs 1 node"},
	}
	base := map[string]ScalingRun{}
	for _, r := range runs {
		if r.Nodes == 1 {
			base[r.Query] = r
		}
	}
	for _, r := range runs {
		b, ok := base[r.Query]
		speedup, ppw := 0.0, 0.0
		if ok && r.SimSeconds > 0 && r.EnergyJ > 0 {
			speedup = b.SimSeconds / r.SimSeconds
			// Work per joule, normalized to the 1-node tray: an N-node tray
			// only wins the perf/watt race when its speedup outruns the
			// extra idle floors and link energy it pays for.
			ppw = speedup * b.EnergyJ / r.EnergyJ
		}
		t.AddRow(r.Query, fmt.Sprint(r.Nodes),
			fmt.Sprintf("%.3f", r.SimSeconds*1e3),
			f2(speedup),
			fmt.Sprintf("%.1f", float64(r.NetBytes)/1024),
			fmt.Sprintf("%.3f", r.NetSeconds*1e3),
			fmt.Sprintf("%.3f", r.EnergyJ*1e3),
			f2(ppw))
	}
	t.AddNote("speedup = 1-node sim / N-node sim; perf/W normalizes work-per-joule to the 1-node tray")
	t.AddNote("net = exchange traffic over the modeled interconnect (%s)", "10GbE-class: 1.25 GB/s, 4 us/tile")
	return t
}
