package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go and workload.go")

// benchmarkJSON is the driver contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

const benchmarkJSONPath = "../BENCHMARK.json"

func declaredJSON() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 15,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	for _, d := range endToEndDefs {
		bound := d.bound
		b.EndToEnd = append(b.EndToEnd, jsonMetric{Name: d.name, Unit: d.unit, Better: d.better, Bound: &bound})
	}
	for _, d := range perLayerDefs {
		b.PerLayer = append(b.PerLayer, jsonMetric{Name: d.name, Unit: d.unit, Better: d.better})
	}
	return b
}

// TestBenchmarkJSON keeps BENCHMARK.json, the metric tables and the driver's
// schema limits in step.
func TestBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(declaredJSON(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile(benchmarkJSONPath, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(benchmarkJSONPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("BENCHMARK.json is out of step with metrics.go/workload.go; run go test ./benchmark -run TestBenchmarkJSON -update")
	}
	var b benchmarkJSON
	if err := json.Unmarshal(got, &b); err != nil {
		t.Fatal(err)
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, the contract allows 2–8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, the contract allows 1–16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 1–128", n)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1–60", b.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match the contract's pattern", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	setup := false
	for _, w := range b.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1–200", w.Name, len(w.Why))
		}
	}
	for _, m := range append(append([]jsonMetric(nil), b.EndToEnd...), b.PerLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match the contract's pattern", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, *m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && m.Bound != nil {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in seconds, lower is better")
	}
}

// smallRun runs a workload at a tiny scale factor for two passes; a traced
// run writes its Chrome trace to tracePath.
func smallRun(t *testing.T, workload string, seed int64, tracePath string) *report {
	t.Helper()
	rep, err := runWorkload(options{
		workload: workload, seed: seed, trace: tracePath != "", traceOut: tracePath, passes: 2, sf: 0.002,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d notes=%v", workload, rep.Correct, rep.Attempted, rep.Failed, rep.Notes)
	}
	return rep
}

// TestEveryMetricEmitted runs each workload once, traced, at a tiny scale
// factor: every declared metric must come out exactly once with its unit,
// and the contract line must carry exactly the declared set.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		tracePath := filepath.Join(t.TempDir(), "trace.json")
		rep := smallRun(t, w.name, 1, tracePath)
		for _, group := range []struct {
			defs []metricDef
			got  map[string]metricValue
		}{{endToEndDefs, rep.EndToEnd}, {perLayerDefs, rep.PerLayer}} {
			if len(group.got) != len(group.defs) {
				t.Errorf("%s: %d metrics emitted, %d declared", w.name, len(group.got), len(group.defs))
			}
			for _, d := range group.defs {
				m, ok := group.got[d.name]
				switch {
				case !ok:
					t.Errorf("%s: %s not emitted", w.name, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s: %s emitted in %q, declared in %q", w.name, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s is %v", w.name, d.name, m.Value)
				}
			}
		}
		for _, d := range endToEndDefs {
			if rep.EndToEnd[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, d.name, rep.EndToEnd[d.name].Value)
			}
		}
		if got := rep.line().Metrics; len(got) != len(perLayerDefs) {
			t.Errorf("%s: traced contract line carries %d metrics, want the %d per-layer ones", w.name, len(got), len(perLayerDefs))
		}
		b, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var trace struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &trace); err != nil || len(trace.TraceEvents) == 0 {
			t.Errorf("%s: trace file does not load as Chrome trace-event JSON (%v, %d events)", w.name, err, len(trace.TraceEvents))
		}
	}
}

// TestDeterministicCurrencies: the simulated currencies and the allocation
// count are properties of the code and the seed, not of the box — two runs
// with one seed agree, and another seed gives other statements. Agreement is
// to a tolerance, not bit for bit: at HEAD the simulated cycle total itself
// moves by up to 0.1 % between two executions of one statement (work units
// land on different cores run to run), which is ROADMAP item 1's
// completion-order dependence seen from the cycle counters.
func TestDeterministicCurrencies(t *testing.T) {
	for _, name := range []string{"scan_agg", "tray4"} {
		a, b := smallRun(t, name, 7, ""), smallRun(t, name, 7, "")
		agree := func(metric string, x, y, tolerance float64) {
			if math.Abs(x/y-1) > tolerance {
				t.Errorf("%s: %s differs by more than %g between two runs of one seed: %v vs %v", name, metric, tolerance, x, y)
			}
		}
		for _, m := range []string{"sim_ms", "energy_mj"} {
			agree(m, a.EndToEnd[m].Value, b.EndToEnd[m].Value, 0.005)
		}
		for _, m := range []string{"dpu.cycles", "dms.read_bytes", "dms.write_bytes"} {
			agree(m, a.PerLayer[m].Value, b.PerLayer[m].Value, 0.005)
		}
		agree("mem.allocs_per_query", a.PerLayer["mem.allocs_per_query"].Value, b.PerLayer["mem.allocs_per_query"].Value, 0.001)
	}
	w, _ := workloadByName("scan_agg")
	s7, err := buildStatements(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := buildStatements(w, 7)
	s8, _ := buildStatements(w, 8)
	same, differ := true, false
	for i := range s7 {
		same = same && s7[i].sql == again[i].sql
		differ = differ || s7[i].sql != s8[i].sql
	}
	if !same || !differ {
		t.Errorf("statements: same seed reproduces=%v, another seed differs=%v", same, differ)
	}
}

// TestIQRSpreadMatchesPython pins the quartile method to the one a driver
// computes with statistics.quantiles(v, n=4).
func TestIQRSpreadMatchesPython(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quantiles: 2.75, 5.5, 8.25
	if got := iqrSpread(v); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("iqrSpread = %v, want 1", got)
	}
	w := []float64{10, 10.2, 9.9, 10.1, 10.4, 9.8} // quantiles: 9.875, 10.05, 10.25
	if got, want := iqrSpread(w), (10.25-9.875)/10.05; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrSpread = %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	d := metricDef{name: "query_cu", bound: 0.10}
	for _, c := range []struct {
		parent, change []float64
		want           string
	}{
		{[]float64{10, 10.1, 9.9, 10}, []float64{10.2, 10.1, 10, 10.3}, "unchanged"},
		{[]float64{10, 10.1, 9.9, 10}, []float64{11.5, 11.4, 11.6, 11.5}, "worse"},
		{[]float64{10, 10.1, 9.9, 10}, []float64{9, 9.1, 8.9, 9}, "better"},
		{[]float64{10, 12, 8, 11}, []float64{11, 9, 13, 10}, "unresolved"},
		{[]float64{10, 12, 8, 11}, []float64{7, 6, 7.5, 5}, "better"}, // noisy, but every change run beats every parent run
	} {
		if got := verdictOf(d, c.parent, c.change); got != c.want {
			t.Errorf("verdictOf(%v, %v) = %s, want %s", c.parent, c.change, got, c.want)
		}
	}
}
