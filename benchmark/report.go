package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metricValue is one emitted metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment is recorded beside the metrics so a run taken in a slow phase
// of the box is recognisable after the fact.
type environment struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	Seed         int64   `json:"seed"`
	ScaleFactor  float64 `json:"scale_factor"`
	Seconds      float64 `json:"seconds"`
	Passes       int     `json:"passes"`
	WarmupPasses int     `json:"warmup_passes"`
	SetupReps    int     `json:"setup_reps"`
	CalMs        float64 `json:"cal_ms"`
	CalCV        float64 `json:"cal_cv"`
	LoadavgStart float64 `json:"loadavg_start"`
	LoadavgEnd   float64 `json:"loadavg_end"`
}

// report is one run of one workload: what -out records and -compare reads.
type report struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Notes     []string               `json:"notes,omitempty"`
	Env       environment            `json:"env"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	Samples   map[string]int         `json:"samples"` // per gated metric, the samples behind it
	PerLayer  map[string]metricValue `json:"per_layer"`
	// Passes are the raw samples of every timed pass, so an estimator can be
	// re-derived — or a phase change inside the run seen — after the fact.
	Passes []passSample       `json:"passes"`
	Debug  map[string]float64 `json:"debug"`
}

// runFile is the on-disk form of -out: every run the invocation made.
type runFile struct {
	Runs []*report `json:"runs"`
}

func newReport(opts options, procs int) *report {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return &report{
		Workload: opts.workload, Traced: opts.trace,
		Env: environment{
			NProc: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(), Commit: commit,
			Seed: opts.seed, ScaleFactor: opts.sf, Seconds: opts.seconds,
			WarmupPasses: warmupPasses, SetupReps: setupReps, LoadavgStart: loadavg(),
		},
		EndToEnd: map[string]metricValue{}, Samples: map[string]int{}, PerLayer: map[string]metricValue{},
	}
}

func (rep *report) endToEnd(name string, value float64, samples int) {
	for _, d := range endToEndDefs {
		if d.name == name {
			rep.EndToEnd[name] = metricValue{Value: value, Unit: d.unit}
			rep.Samples[name] = samples
			return
		}
	}
	panic("undeclared end-to-end metric " + name)
}

// setLayer files the measured layer values under their declared units. A
// value nobody declared is a bug in the benchmark; a declared metric the run
// did not measure (a traced-only one on a plain run) is simply absent.
func (rep *report) setLayer(layer map[string]float64) {
	declared := map[string]string{}
	for _, d := range perLayerDefs {
		declared[d.name] = d.unit
	}
	for name, v := range layer {
		unit, ok := declared[name]
		if !ok {
			panic("undeclared per-layer metric " + name)
		}
		rep.PerLayer[name] = metricValue{Value: v, Unit: unit}
	}
}

func (rep *report) finish(r *runner, a aggregates) {
	mean, sd := meanStddev(a.calMs)
	rep.Env.Passes = len(r.passes)
	rep.Env.CalMs = median(a.calMs)
	rep.Env.CalCV = sd / mean
	rep.Env.LoadavgEnd = loadavg()
	rep.Attempted, rep.Failed = r.attempted, r.failed
	rep.Correct = r.failed == 0
	rep.Notes = r.notes
	rep.Passes = r.passes
}

// resultLine is the driver contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line returns the contract line: every end-to-end metric of a plain run,
// every per-layer metric of a traced one.
func (rep *report) line() resultLine {
	l := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.EndToEnd}
	if rep.Traced {
		l.Metrics = rep.PerLayer
	}
	return l
}

// print writes every measured metric by name and unit, then the contract
// line.
func (rep *report) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s  seed %d  passes %d  cal %.3f ms (cv %.3f)  loadavg %.2f → %.2f\n",
		rep.Workload, rep.Env.Seed, rep.Env.Passes, rep.Env.CalMs, rep.Env.CalCV, rep.Env.LoadavgStart, rep.Env.LoadavgEnd)
	for _, group := range []map[string]metricValue{rep.EndToEnd, rep.PerLayer} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-32s %16.6g %s\n", n, group[n].Value, group[n].Unit)
		}
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", rep.Attempted, rep.Failed)
	for _, n := range rep.Notes {
		fmt.Fprintln(w, "  note:", strings.TrimSpace(n))
	}
	b, err := json.Marshal(rep.line())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func writeRunFile(path string, runs []*report) error {
	b, err := json.MarshalIndent(runFile{Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRunFile(path string) ([]*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs recorded", path)
	}
	return f.Runs, nil
}
