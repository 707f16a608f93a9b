// TPC-H example: loads the workload and runs the paper's representative
// query set on all three engines, comparing results and timings — a small-
// scale rendition of the §7.4 experiments.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"rapid/internal/hostdb"
	"rapid/internal/qef"
	"rapid/internal/tpch"
)

func main() {
	sf := flag.Float64("sf", 0.005, "scale factor")
	flag.Parse()

	fmt.Printf("generating and loading TPC-H at SF %.3f...\n", *sf)
	db := hostdb.New()
	start := time.Now()
	if err := tpch.PopulateHostDB(db, tpch.Config{ScaleFactor: *sf, Seed: 2018}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded in %.1fs\n\n", time.Since(start).Seconds())

	fmt.Printf("%-8s %10s %12s %12s %9s %8s\n",
		"query", "rows", "SystemX ms", "RAPID-sw ms", "speedup", "simDPU ms")
	for _, q := range tpch.Queries() {
		hostStart := time.Now()
		host, err := db.Query(q.SQL, hostdb.QueryOptions{Mode: hostdb.ForceHost})
		if err != nil {
			log.Fatalf("%s (host): %v", q.Name, err)
		}
		hostMs := float64(time.Since(hostStart)) / 1e6

		rapidStart := time.Now()
		rapidSW, err := db.Query(q.SQL, hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeX86})
		if err != nil {
			log.Fatalf("%s (rapid): %v", q.Name, err)
		}
		rapidMs := float64(time.Since(rapidStart)) / 1e6

		dpuRes, err := db.Query(q.SQL, hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeDPU})
		if err != nil {
			log.Fatalf("%s (dpu): %v", q.Name, err)
		}

		if host.Rel.Rows() != rapidSW.Rel.Rows() {
			log.Fatalf("%s: engines disagree (%d vs %d rows)", q.Name, host.Rel.Rows(), rapidSW.Rel.Rows())
		}
		fmt.Printf("%-8s %10d %12.2f %12.2f %8.2fx %9.3f\n",
			q.Name, host.Rel.Rows(), hostMs, rapidMs, hostMs/rapidMs, dpuRes.SimSeconds*1e3)
	}

	fmt.Println("\nsample result (Q1):")
	q1, _ := tpch.QueryByName("Q1")
	res, err := db.Query(q1.SQL, hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeX86})
	if err != nil {
		log.Fatal(err)
	}
	for c := range res.Rel.Cols {
		if c > 0 {
			fmt.Print(" | ")
		}
		fmt.Print(res.Rel.Cols[c].Name)
	}
	fmt.Println()
	for i := 0; i < res.Rel.Rows(); i++ {
		for c := range res.Rel.Cols {
			if c > 0 {
				fmt.Print(" | ")
			}
			fmt.Print(res.Rel.Render(i, c))
		}
		fmt.Println()
	}
}
