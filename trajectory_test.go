package rapid

import (
	"encoding/json"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// trajectory is BENCH_trajectory.json: the benchmark medians each perf
// change recorded, in PR order.
type trajectory struct {
	About string `json:"about"`
	Rows  []struct {
		PR        int     `json:"pr"`
		Commit    *string `json:"commit"`
		Parent    string  `json:"parent"`
		Workloads map[string]struct {
			Pairs   int                   `json:"pairs"`
			Metrics map[string][2]float64 `json:"metrics"`
			Lower   map[string]int        `json:"lower"`
		} `json:"workloads"`
	} `json:"rows"`
}

// TestBenchTrajectory checks the committed trajectory: it parses, its rows
// are in PR order with unique PR numbers, and every workload and metric it
// names is one BENCHMARK.json declares, each with positive medians and a win
// count within its pairs. In a git
// checkout with its history, every commit it names is an ancestor of HEAD.
func TestBenchTrajectory(t *testing.T) {
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
		} `json:"per_layer"`
	}
	if b, err := os.ReadFile("BENCHMARK.json"); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	workloads, metrics := map[string]bool{}, map[string]bool{}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		metrics[m.Name] = true
	}
	f, err := os.Open("BENCH_trajectory.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var tr trajectory
	if err := dec.Decode(&tr); err != nil {
		t.Fatalf("BENCH_trajectory.json: %v", err)
	}
	if len(tr.Rows) == 0 {
		t.Fatal("BENCH_trajectory.json has no rows")
	}
	var commits []string
	for i, r := range tr.Rows {
		if i > 0 && r.PR <= tr.Rows[i-1].PR {
			t.Errorf("row %d: PR %d after PR %d: rows must be in PR order, one per PR", i, r.PR, tr.Rows[i-1].PR)
		}
		if len(r.Workloads) == 0 {
			t.Errorf("PR %d: no workload", r.PR)
		}
		for w, wr := range r.Workloads {
			if !workloads[w] {
				t.Errorf("PR %d: workload %q is not in BENCHMARK.json", r.PR, w)
			}
			if wr.Pairs < 1 || len(wr.Metrics) == 0 {
				t.Errorf("PR %d %s: %d pairs and %d metrics", r.PR, w, wr.Pairs, len(wr.Metrics))
			}
			for m, v := range wr.Metrics {
				if !metrics[m] {
					t.Errorf("PR %d %s: metric %q is not in BENCHMARK.json", r.PR, w, m)
				}
				if v[0] <= 0 || v[1] <= 0 {
					t.Errorf("PR %d %s %s: medians %v, want both positive", r.PR, w, m, v)
				}
			}
			for m, n := range wr.Lower {
				if _, ok := wr.Metrics[m]; !ok || n < 0 || n > wr.Pairs {
					t.Errorf("PR %d %s: lower in %d of %d pairs for %q, which needs its medians", r.PR, w, n, wr.Pairs, m)
				}
			}
		}
		commits = append(commits, r.Parent)
		if r.Commit != nil {
			commits = append(commits, *r.Commit)
		}
	}

	// One git call lists the history; a shallow clone lacks the old commits.
	if _, err := os.Stat(".git"); err != nil {
		t.Skip("no .git checkout: commit ancestry not checked")
	}
	if _, err := os.Stat(".git/shallow"); err == nil {
		t.Skip("shallow clone: commit ancestry not checked")
	}
	out, err := exec.Command("git", "rev-list", "HEAD").Output()
	if err != nil {
		t.Skipf("git history unavailable (%v): commit ancestry not checked", err)
	}
	history := strings.Fields(string(out))
	for _, c := range commits {
		if !slices.ContainsFunc(history, func(h string) bool { return strings.HasPrefix(h, c) }) {
			t.Errorf("commit %s is not an ancestor of HEAD", c)
		}
	}
}
