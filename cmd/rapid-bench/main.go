// rapid-bench regenerates every table and figure of the paper's evaluation
// section (§7) and prints them as text tables. See EXPERIMENTS.md for the
// paper-vs-measured record.
//
// Usage:
//
//	rapid-bench [-sf 0.01] [-reps 3] [-micro-rows 2097152] [-skip-tpch]
//	            [-clients 0] [-client-ops 8]
//	            [-profile out.json] [-trace out.json]
//	            [-tray-trace out.json] [-tray-trace-nodes 4]
//	            [-metrics addr] [-pprof] [-metrics-out file]
//
// With -clients N > 0 the suite adds a concurrency ladder: closed-loop
// fleets of 1, 4, 16, ..., N clients drive the shared-SoC scheduler with the
// TPC-H mix and report throughput, tail latency and shed queries per rung.
// -tray-trace runs the distributed TPC-H queries on a tray and writes one
// stitched Chrome trace: a lane per node plus the coordinator, with flow
// events for every cross-node exchange stream.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"rapid/internal/bench"
	"rapid/internal/cluster"
	"rapid/internal/hostdb"
	"rapid/internal/obs"
	"rapid/internal/power"
	"rapid/internal/qef"
	"rapid/internal/tpch"
)

func main() {
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor for the system benchmarks")
	reps := flag.Int("reps", 3, "repetitions per query (best-of)")
	microRows := flag.Int("micro-rows", 1<<21, "input rows for micro-benchmarks")
	skipTPCH := flag.Bool("skip-tpch", false, "run only the micro-benchmarks")
	ablations := flag.Bool("ablations", true, "run the design-choice ablation studies")
	profilePath := flag.String("profile", "", "write per-operator ModeDPU profiles of every TPC-H query as JSON to this file")
	tracePath := flag.String("trace", "", "write ModeDPU profiles of every TPC-H query as Chrome trace-event JSON to this file")
	clients := flag.Int("clients", 0, "run the concurrency ladder up to this many simultaneous clients (0 = off)")
	clientOps := flag.Int("client-ops", 8, "queries each client of the concurrency ladder issues")
	trayNodes := flag.String("tray-nodes", "", "comma-separated tray node counts for the multi-node scaling experiment (e.g. 1,2,4,8; empty = off)")
	trayTracePath := flag.String("tray-trace", "", "write a stitched distributed Chrome trace of the tray TPC-H queries to this file")
	trayTraceNodes := flag.Int("tray-trace-nodes", 4, "tray width for -tray-trace")
	metricsAddr := flag.String("metrics", "", "serve Prometheus metrics on this address while the suite runs")
	pprofOn := flag.Bool("pprof", false, "expose Go runtime profiles on /debug/pprof/* of the -metrics endpoint")
	metricsOut := flag.String("metrics-out", "", "write the final Prometheus metrics exposition to this file")
	pruning := flag.Bool("pruning", false, "run the zone-map pruning effectiveness experiment (shipdate-clustered lineitem, pruning on vs off)")
	flag.Parse()

	fmt.Println("RAPID reproduction benchmark suite")
	fmt.Println()

	for _, t := range []*bench.Table{
		bench.RunFig4(),
		bench.RunFig8(*microRows),
		bench.RunFig9(),
		bench.RunFilterMicro(*microRows),
		bench.RunFig10(*microRows),
		bench.RunFig11(*microRows / 16),
		bench.RunFig12(*microRows / 16),
		bench.RunFig13(*microRows / 16),
	} {
		fmt.Println(t)
	}

	if *ablations {
		for _, t := range bench.RunAblations(*microRows) {
			fmt.Println(t)
		}
	}

	if *pruning {
		fmt.Printf("building shipdate-clustered TPC-H workload at SF %.3f...\n", *sf)
		cdb, err := bench.SetupTPCHClustered(*sf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pruning setup:", err)
			os.Exit(1)
		}
		runs, err := bench.RunPruning(cdb, []string{"Q6", "Q14"})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pruning:", err)
			os.Exit(1)
		}
		fmt.Println(bench.RunPruningTable(runs))
		cdb.Close()
	}

	if *skipTPCH && *profilePath == "" && *tracePath == "" && *clients == 0 && *trayNodes == "" && *trayTracePath == "" {
		return
	}
	fmt.Printf("building TPC-H workload at SF %.3f...\n", *sf)
	start := time.Now()
	db, err := bench.SetupTPCH(*sf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "setup:", err)
		os.Exit(1)
	}
	fmt.Printf("loaded in %.1fs\n\n", time.Since(start).Seconds())
	if *metricsAddr != "" {
		srv, err := db.ServeTelemetryWith(*metricsAddr, *pprofOn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "metrics:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("telemetry: %s\n\n", srv.URL())
	}
	if !*skipTPCH {
		runs, err := bench.RunQueries(db, *reps)
		if err != nil {
			fmt.Fprintln(os.Stderr, "queries:", err)
			os.Exit(1)
		}
		fmt.Println(bench.RunFig16(runs))
		fmt.Println(bench.RunFig15(runs))
		fmt.Println(bench.RunFig14(runs))
	}
	if *clients > 0 {
		t := &bench.Table{
			Title:   "Concurrency ladder: closed-loop TPC-H mix on the shared-SoC scheduler",
			Headers: []string{"clients", "queries/sec", "p50 ms", "p99 ms", "shed"},
		}
		for _, n := range []int{1, 4, 16, 64} {
			if n > *clients {
				break
			}
			res, err := bench.RunConcurrent(db, n, *clientOps)
			if err != nil {
				fmt.Fprintln(os.Stderr, "concurrent:", err)
				os.Exit(1)
			}
			t.AddRow(fmt.Sprint(n), fmt.Sprintf("%.1f", res.QPS()),
				fmt.Sprintf("%.3f", float64(res.P50)/1e6),
				fmt.Sprintf("%.3f", float64(res.P99)/1e6),
				fmt.Sprint(res.Shed))
		}
		t.AddNote("per-query latency includes admission queue wait; shed = queries rejected with ErrOverloaded")
		fmt.Println(t)
	}
	if *trayNodes != "" {
		var counts []int
		for _, s := range strings.Split(*trayNodes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "tray-nodes: bad node count %q\n", s)
				os.Exit(1)
			}
			counts = append(counts, n)
		}
		runs, err := bench.RunScaling(db, counts, []string{"Q1", "Q6", "Q12", "Q14", "Q18"})
		if err != nil {
			fmt.Fprintln(os.Stderr, "scaling:", err)
			os.Exit(1)
		}
		fmt.Println(bench.RunScalingTable(runs))
	}
	if *trayTracePath != "" {
		if err := writeTrayTrace(db, *trayTracePath, *trayTraceNodes); err != nil {
			fmt.Fprintln(os.Stderr, "tray-trace:", err)
			os.Exit(1)
		}
		fmt.Printf("stitched distributed trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", *trayTracePath)
	}
	if *profilePath != "" || *tracePath != "" {
		if err := writeProfiles(db, *profilePath, *tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "profile:", err)
			os.Exit(1)
		}
		if *profilePath != "" {
			fmt.Printf("per-operator profiles written to %s\n", *profilePath)
		}
		if *tracePath != "" {
			fmt.Printf("Chrome trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", *tracePath)
		}
	}
	if t := histogramSummary(db); len(t.Rows) > 0 {
		fmt.Println(t)
	}
	if *metricsOut != "" {
		if err := os.WriteFile(*metricsOut, []byte(db.Metrics().RenderPrometheus()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "metrics-out:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics exposition written to %s\n", *metricsOut)
	}
}

// histogramSummary renders p50/p99 of the fleet histograms accumulated over
// the whole run (empty histograms are skipped).
func histogramSummary(db *hostdb.Database) *bench.Table {
	t := &bench.Table{
		Title:   "Latency and energy distributions (whole run, bucketed estimates)",
		Headers: []string{"histogram", "count", "p50", "p99"},
	}
	for _, e := range []struct {
		name, unit string
		scale      float64
	}{
		{"hostdb_query_seconds", "ms", 1e3},
		{"sched_queue_wait_seconds", "ms", 1e3},
		{"rapid_query_cycles", "Mcycles", 1e-6},
		{"rapid_query_energy_nanojoules", "mJ", 1e-6},
	} {
		v := db.Metrics().Histogram(e.name).View()
		if v.Count == 0 {
			continue
		}
		t.AddRow(e.name, fmt.Sprint(v.Count),
			fmt.Sprintf("%.3f %s", v.Quantile(0.50)*e.scale, e.unit),
			fmt.Sprintf("%.3f %s", v.Quantile(0.99)*e.scale, e.unit))
	}
	return t
}

// writeTrayTrace runs the distributed TPC-H queries on an n-node tray in
// ModeDPU with trace recording on, stitches every execution into one Chrome
// trace — a coordinator lane plus one lane per node, flow events for every
// cross-node exchange stream — and writes it to path.
func writeTrayTrace(db *hostdb.Database, path string, nodes int) error {
	tray, err := cluster.New(db, cluster.Config{Nodes: nodes})
	if err != nil {
		return err
	}
	defer tray.Close()
	for _, name := range tpch.TableNames() {
		if err := tray.Load(name, nil); err != nil {
			return fmt.Errorf("load %s: %w", name, err)
		}
	}
	b := obs.NewTraceBuilder()
	for _, qname := range []string{"Q1", "Q6", "Q12", "Q14"} {
		q, ok := tpch.QueryByName(qname)
		if !ok {
			return fmt.Errorf("unknown query %s", qname)
		}
		res, err := tray.Query(q.SQL, cluster.QueryOptions{Mode: qef.ModeDPU, Trace: true})
		if err != nil {
			return fmt.Errorf("%s: %w", qname, err)
		}
		b.AddDistributedQuery(qname, qef.ModeDPU.String(), nodes, res.Trace)
	}
	data, err := b.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// writeProfiles runs every TPC-H query once in ModeDPU with profiling on,
// checks the accounting and energy invariants, and dumps the per-operator
// summaries (profilePath) and the Chrome trace (tracePath); either path may
// be empty.
func writeProfiles(db *hostdb.Database, profilePath, tracePath string) error {
	type entry struct {
		Query   string      `json:"query"`
		Profile obs.Summary `json:"profile"`
	}
	opts := hostdb.QueryOptions{
		Mode: hostdb.ForceOffload, RapidMode: qef.ModeDPU,
		FailOnInadmissible: true, Profile: true,
	}
	var out []entry
	trace := obs.NewTraceBuilder()
	for _, q := range tpch.Queries() {
		res, err := db.Query(q.SQL, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", q.Name, err)
		}
		if err := res.Profile.CheckInvariants(); err != nil {
			return fmt.Errorf("%s: invariants: %w", q.Name, err)
		}
		if err := res.Profile.CheckEnergyInvariants(power.DefaultEnergyModel()); err != nil {
			return fmt.Errorf("%s: energy invariants: %w", q.Name, err)
		}
		out = append(out, entry{Query: q.Name, Profile: res.Profile.Summary()})
		trace.AddQuery(q.Name, res.Profile)
	}
	if tracePath != "" {
		data, err := trace.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(tracePath, data, 0o644); err != nil {
			return err
		}
	}
	if profilePath == "" {
		return nil
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(profilePath, append(data, '\n'), 0o644)
}
