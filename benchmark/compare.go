package main

import (
	"fmt"
	"io"
)

// compareFiles prints one row per workload × gated metric — parent median,
// change median, their ratio, the bound and a verdict — and fails on any
// regression, on any drift of the deterministic currencies (sim_ms,
// energy_mj) beyond their bound in either direction, and on any rise in the
// share of failed operations.
//
// Verdicts: worse (the change's median is worse than the parent's by more
// than the bound), better (it improved by more than the parent's own
// run-to-run spread), unchanged, and unresolved — a side's spread is wider
// than the bound, so the medians cannot settle it, unless every run of the
// change reads better than every run of the parent.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, err := readRunFile(parentPath)
	if err != nil {
		return err
	}
	change, err := readRunFile(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-10s %13s %13s %18s %6s  %s\n", "workload", "metric", "parent", "change", "change/parent", "bound", "verdict")
	failures := 0
	for _, wl := range workloads {
		p, c := runsOf(parent, wl.name), runsOf(change, wl.name)
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		if ps, cs := failedShare(p), failedShare(c); cs > ps {
			fmt.Fprintf(w, "%-13s failed-operation share rose from %.4f to %.4f\n", wl.name, ps, cs)
			failures++
		}
		for _, d := range endToEndDefs {
			pv, cv := values(p, d.name), values(c, d.name)
			pm, cm := median(pv), median(cv)
			ratio := cm / pm
			verdict := verdictOf(d, pv, cv)
			if drift := ratio - 1; (d.name == "sim_ms" || d.name == "energy_mj") && (drift > d.bound || -drift > d.bound) {
				verdict = "DRIFT"
			}
			if verdict == "worse" || verdict == "DRIFT" {
				failures++
			}
			fmt.Fprintf(w, "%-13s %-10s %13.6g %13.6g %9.4f of %-6.4g %5.1f%%  %s (n=%d/%d)\n",
				wl.name, d.name, pm, cm, ratio, pm, 100*d.bound, verdict, len(pv), len(cv))
		}
	}
	if failures > 0 {
		return fmt.Errorf("compare: %d regression(s) or drift(s)", failures)
	}
	return nil
}

// verdictOf applies the no-regression rule to one lower-is-better metric.
func verdictOf(d metricDef, parent, change []float64) string {
	pm, cm := median(parent), median(change)
	worsening := cm/pm - 1
	if rangeSpread(parent) > d.bound || rangeSpread(change) > d.bound {
		if sorted(change)[len(change)-1] < sorted(parent)[0] {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case worsening > d.bound:
		return "worse"
	case -worsening > rangeSpread(parent) && worsening < 0:
		return "better"
	}
	return "unchanged"
}

// rangeSpread is a side's run-to-run spread as a share of its median: the
// interquartile distance with four or more runs, the full range below that
// (0 for a single run, which cannot show any).
func rangeSpread(v []float64) float64 {
	if len(v) >= 4 {
		return iqrSpread(v)
	}
	s := sorted(v)
	return (s[len(s)-1] - s[0]) / median(s)
}

func runsOf(runs []*report, workload string) []*report {
	var out []*report
	for _, r := range runs {
		if r.Workload == workload && !r.Traced {
			out = append(out, r)
		}
	}
	return out
}

func values(runs []*report, metric string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.EndToEnd[metric].Value
	}
	return out
}

func failedShare(runs []*report) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(attempted)
}
