// rapid-bench regenerates every simulated-currency table and figure of the
// paper's evaluation section (§7) and prints them as text: exactly the
// content of internal/bench/testdata/figures.golden, whatever machine it runs
// on. Wall-clock figures (Fig 15, Fig 16, the concurrency ladder) come from
// `bash benchmark/run.sh`; see EXPERIMENTS.md for the paper-vs-measured
// record.
//
// Usage:
//
//	rapid-bench [-tray-trace out.json]
//
// -tray-trace also runs the distributed TPC-H queries on a 4-node tray and
// writes one stitched Chrome trace: a lane per node plus the coordinator,
// with flow events for every cross-node exchange stream.
package main

import (
	"flag"
	"fmt"
	"os"

	"rapid/internal/bench"
	"rapid/internal/cluster"
	"rapid/internal/obs"
	"rapid/internal/qef"
	"rapid/internal/tpch"
)

func main() {
	trayTracePath := flag.String("tray-trace", "", "also write a stitched distributed Chrome trace of the tray TPC-H queries to this file")
	flag.Parse()

	figs, err := bench.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rapid-bench:", err)
		os.Exit(1)
	}
	fmt.Print(figs)

	if *trayTracePath != "" {
		if err := writeTrayTrace(*trayTracePath); err != nil {
			fmt.Fprintln(os.Stderr, "tray-trace:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "stitched distributed trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", *trayTracePath)
	}
}

// writeTrayTrace runs the distributed TPC-H queries on a 4-node tray in
// ModeDPU with trace recording on, stitches every execution into one Chrome
// trace — a coordinator lane plus one lane per node, flow events for every
// cross-node exchange stream — and writes it to path.
func writeTrayTrace(path string) error {
	const nodes = 4
	db, err := bench.SetupTPCH(bench.TPCHScaleFactor)
	if err != nil {
		return err
	}
	defer db.Close()
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
