package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runAA is the repeatability check: the same code, n times back to back in
// fresh processes, each with another seed (seed, seed+1, …) as a driver
// would run it. Per gated metric it prints the n values, their median, the
// interquartile spread as a share of the median (the statistic a driver
// gates on), max/min − 1 and the declared bound, and fails when the spread
// exceeds the bound or when the two interleaved sets (odd runs vs even runs)
// disagree by more than the bound.
func runAA(w io.Writer, opts options, n int) ([]*report, error) {
	if n < 4 {
		return nil, fmt.Errorf("-aa needs at least 4 runs, got %d", n)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var runs []*report
	for i := 0; i < n; i++ {
		tmp := filepath.Join(dir, fmt.Sprintf("aa_%s_%d.json", opts.workload, i))
		cmd := exec.Command(exe,
			"-workload", opts.workload,
			"-seed", strconv.FormatInt(opts.seed+int64(i), 10),
			"-seconds", strconv.FormatFloat(opts.seconds, 'g', -1, 64),
			"-out", tmp)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return runs, fmt.Errorf("%s run %d: %w", opts.workload, i, err)
		}
		reps, err := readRunFile(tmp)
		if err != nil {
			return runs, err
		}
		os.Remove(tmp)
		runs = append(runs, reps...)
		fmt.Fprintf(w, "%s run %d/%d done (seed %d, cal %.3f ms, loadavg %.2f)\n",
			opts.workload, i+1, n, reps[0].Env.Seed, reps[0].Env.CalMs, reps[0].Env.LoadavgEnd)
	}

	fmt.Fprintf(w, "\nA/A %s, %d runs\n", opts.workload, n)
	fmt.Fprintf(w, "%-10s %12s %8s %9s %6s  %-9s  values\n", "metric", "median", "iqr/med", "max/min-1", "bound", "odd~even")
	bad := 0
	for _, d := range endToEndDefs {
		var all, odd, even []float64
		for i, rep := range runs {
			v := rep.EndToEnd[d.name].Value
			all = append(all, v)
			if i%2 == 0 {
				even = append(even, v)
			} else {
				odd = append(odd, v)
			}
		}
		sp := iqrSpread(all)
		s := sorted(all)
		disagree := median(odd)/median(even) - 1
		if disagree < 0 {
			disagree = -disagree
		}
		verdict := "ok"
		// setup_s is gated on its medians only; its spread is reported.
		if disagree > d.bound || (sp > d.bound && d.name != "setup_s") {
			verdict = "FAIL"
			bad++
		}
		fmt.Fprintf(w, "%-10s %12.6g %7.2f%% %8.2f%% %5.1f%%  %5.2f%% %-4s ", d.name, median(all), 100*sp, 100*(s[len(s)-1]/s[0]-1), 100*d.bound, 100*disagree, verdict)
		for _, v := range all {
			fmt.Fprintf(w, " %.6g", v)
		}
		fmt.Fprintln(w)
	}
	if bad > 0 {
		return runs, fmt.Errorf("A/A %s: %d metric(s) do not repeat within their bound", opts.workload, bad)
	}
	return runs, nil
}

// iqrSpread is the distance between the first and third quartile as a share
// of the median, with the quartiles of Python's statistics.quantiles(v, n=4)
// (the exclusive method) so it reads the same as a driver's check.
func iqrSpread(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(s)
}
