// rapid-fuzz is the standalone soak driver for the qgen differential and
// metamorphic harness: it generates seeded random schemas, data and SQL,
// executes every query on the hostdb row interpreter, RAPID ModeX86, RAPID
// ModeDPU and an alternate small-chunk/RLE layout, and stops (or keeps
// counting with -keep-going) on the first mismatch, printing a replayable
// minimized reproducer.
//
// Usage:
//
//	rapid-fuzz [-n 10000] [-seed 1] [-parallel 0] [-nodes ""] [-keep-going]
//	           [-quiet]
//
// With -parallel K > 1, every generated query is additionally executed on K
// concurrent sessions against the shared databases and each concurrent
// result is compared to a serial host-oracle run, so shared-SoC scheduler
// bugs surface as replayable reproducers.
//
// With -nodes (e.g. -nodes 1,2,4,8), every query also runs on multi-node
// trays with all scenario tables hash-sharded, and each tray's result bag is
// differentially compared against the host oracle — the distributed planner,
// exchange operators and partial-aggregation merge get the same soak as the
// single-node engine.
//
// Any failure is replayable with:
//
//	go test ./internal/qgen -run Differential -qgen.seed=<seed>
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"rapid/internal/qgen"
)

func main() {
	n := flag.Int("n", 10000, "number of generated queries to check")
	seed := flag.Int64("seed", 1, "master seed; fixed seed = identical run")
	parallel := flag.Int("parallel", 0, "also run each query on K concurrent sessions and compare lanes (0 = off)")
	nodes := flag.String("nodes", "", "comma-separated tray node counts for distributed differential lanes (e.g. 1,2,4,8; empty = off)")
	keepGoing := flag.Bool("keep-going", false, "report every mismatch instead of stopping at the first")
	quiet := flag.Bool("quiet", false, "suppress the periodic progress line")
	flag.Parse()

	var nodeCounts []int
	if *nodes != "" {
		for _, s := range strings.Split(*nodes, ",") {
			c, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || c < 1 {
				fmt.Fprintf(os.Stderr, "-nodes: bad node count %q\n", s)
				os.Exit(2)
			}
			nodeCounts = append(nodeCounts, c)
		}
	}

	const perScenario = 20
	start := time.Now()
	executed, rejected, failures := 0, 0, 0

	report := func(m *qgen.Mismatch, r *qgen.Runner) {
		m.Minimized = r.Minimize(m.SQL)
		fmt.Println(m.Reproducer())
		failures++
		if !*keepGoing {
			os.Exit(1)
		}
	}

	for scen := 0; executed < *n; scen++ {
		g := qgen.New(*seed + int64(scen)*1_000_003)
		r, err := qgen.NewRunner(g.NewScenario())
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenario %d: %v\n", scen, err)
			os.Exit(2)
		}
		if len(nodeCounts) > 0 {
			if err := r.EnableTrays(nodeCounts); err != nil {
				fmt.Fprintf(os.Stderr, "scenario %d: %v\n", scen, err)
				os.Exit(2)
			}
		}
		for i := 0; i < perScenario && executed < *n; i++ {
			q := g.NextQuery()
			if m := r.Check(q); m != nil {
				report(m, r)
			}
			if m := r.CheckTLP(q); m != nil {
				report(m, r)
			}
			if m := r.CheckTautology(q); m != nil {
				report(m, r)
			}
			if *parallel > 1 {
				if m := r.CheckConcurrent(q.SQL(), *parallel); m != nil {
					report(m, r)
				}
			}
			executed++
		}
		rejected += r.Rejected
		r.Close()
		if !*quiet && scen%50 == 49 {
			fmt.Printf("%8d queries, %d scenarios, %d rejected, %d failures, %.1fs\n",
				executed, scen+1, rejected, failures, time.Since(start).Seconds())
		}
	}

	fmt.Printf("done: %d queries checked (%d rejected consistently, %d failures) in %.1fs\n",
		executed, rejected, failures, time.Since(start).Seconds())
	if failures > 0 {
		os.Exit(1)
	}
}
