package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// The one run every test of this package reads. No test here is parallel, so
// plain variables do.
var (
	figures    *Figures
	figuresErr error
	// figuresCompared is set once TestFiguresGolden has held `figures` to the
	// golden file: its next invocation (-count=2) takes a fresh run, so
	// repeatability inside one process is checked rather than cached away.
	figuresCompared bool
)

func sharedFigures(t *testing.T) *Figures {
	t.Helper()
	if figures == nil && figuresErr == nil {
		figures, figuresErr = Run()
	}
	if figuresErr != nil {
		t.Fatal(figuresErr)
	}
	return figures
}

// TestFiguresGolden holds every simulated-currency figure to the committed
// text, byte for byte. The simulator is a pure function of the tree, so a
// difference is a cost-model or planner edit: regenerate with
//
//	go test ./internal/bench -run FiguresGolden -update
//
// and review the diff.
func TestFiguresGolden(t *testing.T) {
	if figuresCompared {
		figures, figuresErr, figuresCompared = nil, nil, false
	}
	got := sharedFigures(t).String()
	figuresCompared = true
	path := filepath.Join("testdata", "figures.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("figures drifted from %s (regenerate with -update and review the diff):\n%s", path, lineDiff(string(want), got))
	}
}

// TestExperimentsQuoteTheGolden keeps EXPERIMENTS.md honest: every line of a
// fenced block that opens with a line of the golden file (a table header)
// must be a line of the golden file, so the page cannot keep a figure the tree
// no longer produces.
func TestExperimentsQuoteTheGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "figures.golden"))
	if err != nil {
		t.Fatal(err)
	}
	inGolden := map[string]bool{}
	for _, l := range strings.Split(string(golden), "\n") {
		inGolden[l] = true
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	quoted := 0
	var block []string // lines of the open fenced block; nil outside one
	for _, l := range strings.Split(string(doc), "\n") {
		switch {
		case !strings.HasPrefix(l, "```"):
			if block != nil {
				block = append(block, l)
			}
		case block == nil:
			block = []string{}
		default:
			// A block quotes the golden file when its first line is one of
			// its lines; others hold commands or other programs' output.
			if len(block) > 0 && inGolden[block[0]] {
				for _, q := range block {
					if !inGolden[q] {
						t.Errorf("EXPERIMENTS.md quotes a line figures.golden does not have:\n%s", q)
					}
				}
				quoted += len(block)
			}
			block = nil
		}
	}
	if quoted < 50 {
		t.Fatalf("only %d quoted lines found; the fence parsing is broken", quoted)
	}
}

// lineDiff lists the lines that differ, by position: the golden is a fixed
// sequence of tables, so a cost-model edit changes cells, not the line count.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&sb, "line %d:\n  - %s\n  + %s\n", i+1, wl, gl)
		}
	}
	return sb.String()
}

// TestPaperPoints asserts every number the paper states — 1.65 cycles/tuple,
// ~9.3 GiB/s, 46 M rows/s/core, +39 %, >= 9 GiB/s at 128-row tiles, … —
// against its tolerance band. The exact values sit beside the bands in the
// golden file; this is the check that a reviewed golden diff did not walk a
// figure away from the paper.
func TestPaperPoints(t *testing.T) {
	points := 0
	for _, tb := range sharedFigures(t).Tables() {
		for _, p := range tb.Points {
			points++
			if !p.InBand() {
				t.Errorf("%s", p)
			}
		}
	}
	if points < 10 {
		t.Fatalf("only %d paper points", points)
	}
}

func queryRun(t *testing.T, name string) QueryRun {
	t.Helper()
	for _, r := range sharedFigures(t).Queries {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no %s in the figures run", name)
	return QueryRun{}
}

// TestQ1ActivityEnergyWithinProvisionedBound pins the energy model's
// acceptance criterion on TPC-H Q1: the activity-model energy of the DPU run
// stays inside the provisioned-power envelope, so the Fig 14 provisioned
// perf/watt figure remains recoverable as a lower bound of the
// activity-based figure. (runQueries checks the per-span energy invariants of
// every query's profile on the way.)
func TestQ1ActivityEnergyWithinProvisionedBound(t *testing.T) {
	q1 := queryRun(t, "Q1")
	if q1.EnergyJ <= 0 {
		t.Fatalf("no energy on the DPU run: %+v", q1)
	}
	if q1.EnergyJ > q1.ProvisionedJ {
		t.Fatalf("Q1 activity energy %g J exceeds provisioned %g J over %gs", q1.EnergyJ, q1.ProvisionedJ, q1.SimDPUSec)
	}
	if act, prov := q1.ActivityPerfPerWatt(), q1.PerfPerWatt(); act < prov {
		t.Fatalf("activity perf/watt %g below provisioned %g", act, prov)
	}
}

func TestFig14Shape(t *testing.T) {
	runs := sharedFigures(t).Queries
	if len(runs) == 0 {
		t.Fatal("no queries in the figures run")
	}
	for _, r := range runs {
		// Even before any software speedup, one 5.8 W DPU must beat the
		// 290 W server on work per joule on every query.
		if ratio := r.PerfPerWatt(); ratio <= 1 {
			t.Fatalf("%s: perf/watt factor %.2f <= 1 — RAPID must win on perf/watt", r.Name, ratio)
		}
		if r.ActivityPerfPerWatt() < r.PerfPerWatt() {
			t.Fatalf("%s: activity perf/watt below the provisioned bound", r.Name)
		}
	}
}

func scalingRun(t *testing.T, query string, nodes int) ScalingRun {
	t.Helper()
	for _, r := range sharedFigures(t).Scaling {
		if r.Query == query && r.Nodes == nodes {
			return r
		}
	}
	t.Fatalf("no %s on %d nodes in the figures run", query, nodes)
	return ScalingRun{}
}

// TestQ6ScalingFloor is the tray's acceptance bar: sharding lineitem over 8
// nodes must buy Q6 at least a 3x simulated-throughput speedup over the
// 1-node tray. TPCHScaleFactor is large enough that per-node scan work
// dominates the tray's fixed costs (per-node sim floor + one gather message
// per node); the modeled speedup is a deterministic 3.6x.
func TestQ6ScalingFloor(t *testing.T) {
	if got := scalingRun(t, "Q6", 1).SimSeconds / scalingRun(t, "Q6", 8).SimSeconds; got < 3 {
		t.Fatalf("Q6 1->8 node simulated speedup = %.2fx, want >= 3x", got)
	}
}

// TestQ18ScalingFloor gates the cost of distributing the join-heaviest query:
// the 4-node tray must not be slower, in simulated time, than the 1-node
// tray, and must put under 1 MB on the link. Before exchanges were decided
// once and by bytes Q18 anti-scaled — 27.3 ms on one node, 57.4 ms on four,
// 63 MB moved: the lineitem ⋈ orders output was shuffled three times and then
// gathered. It now broadcasts customer (9 000 rows × 2 columns, 432 KB) and
// gathers the finished groups: 4.9 ms → 1.4 ms, 579 KB, all of it modeled and
// therefore deterministic.
func TestQ18ScalingFloor(t *testing.T) {
	one, four := scalingRun(t, "Q18", 1), scalingRun(t, "Q18", 4)
	if got := one.SimSeconds / four.SimSeconds; got < 1 {
		t.Fatalf("Q18 1->4 node simulated speedup = %.2fx, want >= 1x (it must not anti-scale)", got)
	}
	const ceiling = 1_000_000
	if four.NetBytes > ceiling {
		t.Fatalf("Q18 on 4 nodes moved %d bytes, want <= %d", four.NetBytes, ceiling)
	}
}

// TestQ6PruningFloor is the acceptance bar for zone-map pruning: on the
// shipdate-clustered lineitem, Q6's one-year shipdate range must prune at
// least half of all scannable tiles, bill strictly fewer cycles than the
// force-disabled run, and return the identical answer (checked inside
// runPruning).
func TestQ6PruningFloor(t *testing.T) {
	r := sharedFigures(t).Pruning[0]
	if r.Query != "Q6" || r.TilesTotal == 0 {
		t.Fatalf("first pruning run is %+v, want Q6 with scannable tiles", r)
	}
	if rate := r.SkipRate(); rate < 0.5 {
		t.Fatalf("Q6 skip rate = %.1f%% (%d/%d tiles), want >= 50%%",
			100*rate, r.TilesPruned, r.TilesTotal)
	}
	if r.CyclesOn >= r.CyclesOff {
		t.Fatalf("pruned run billed %d cycles, unpruned %d — skipped tiles are not free",
			r.CyclesOn, r.CyclesOff)
	}
}
