// Command benchmark is the repository's performance benchmark: four TPC-H
// workloads over the RAPID engine, seven gated end-to-end metrics reported
// in calibration units so runs compare across boxes and noise phases, and a
// traced run that attributes time to the layers a query crosses. README.md
// in this directory defines every metric; BENCHMARK.json is the contract a
// driver runs it by.
//
//	go run ./benchmark -workload scan_agg -seed 1 -seconds 12        # one run
//	go run ./benchmark -workload all -out run.json                   # all four, recorded
//	go run ./benchmark -workload tray4 -trace 1                      # per-layer metrics + Chrome trace
//	go run ./benchmark -workload join_heavy -aa 10                   # repeatability check
//	go run ./benchmark -compare parent.json change.json              # verdict per workload × metric
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		opts    options
		trace   int
		out     string
		aaRuns  int
		compare bool
	)
	flag.StringVar(&opts.workload, "workload", "", "scan_agg, join_heavy, tray4, htap_refresh or all")
	flag.Int64Var(&opts.seed, "seed", 1, "drives statement order, date-window literals and DML targets")
	flag.Float64Var(&opts.seconds, "seconds", 12, "measuring time of one run")
	flag.IntVar(&trace, "trace", 0, "1: the traced run — per-layer metrics and a Chrome trace instead of end-to-end metrics")
	flag.StringVar(&opts.traceOut, "trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace_<workload>.json)")
	flag.StringVar(&out, "out", "", "record every run of this invocation in this file (run.json)")
	flag.IntVar(&aaRuns, "aa", 0, "run the workload N times in fresh processes, seeds seed..seed+N-1, and check repeatability")
	flag.BoolVar(&compare, "compare", false, "compare two run files: -compare parent.json change.json")
	flag.Parse()
	opts.trace = trace != 0
	opts.sf = scaleFactor

	if err := dispatch(opts, out, aaRuns, compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func dispatch(opts options, out string, aaRuns int, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two run files: parent.json change.json")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	names := []string{opts.workload}
	if opts.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := workloadByName(opts.workload); !ok {
		return fmt.Errorf("unknown workload %q (want scan_agg, join_heavy, tray4, htap_refresh or all)", opts.workload)
	}
	var runs []*report
	var aaErr error
	wrong := 0
	for _, name := range names {
		o := opts
		o.workload = name
		if aaRuns > 0 {
			reps, err := runAA(os.Stdout, o, aaRuns)
			runs = append(runs, reps...)
			if err != nil && aaErr == nil {
				aaErr = err // still record the runs made
			}
			continue
		}
		if o.traceOut == "" {
			o.traceOut = ".bench_build/trace_" + name + ".json"
		}
		rep, err := runWorkload(o)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := rep.print(os.Stdout); err != nil {
			return err
		}
		runs = append(runs, rep)
		if !rep.Correct {
			wrong++
		}
	}
	if out != "" {
		if err := writeRunFile(out, runs); err != nil {
			return err
		}
	}
	if wrong > 0 {
		return fmt.Errorf("%d workload(s) had failed operations or wrong results", wrong)
	}
	return aaErr
}
