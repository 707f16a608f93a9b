package qgen

import (
	"flag"
	"testing"

	"rapid/internal/sqlparse"
)

var (
	flagN    = flag.Int("qgen.n", 200, "number of generated queries for the differential test")
	flagSeed = flag.Int64("qgen.seed", 1, "master seed; fixed seed = identical scenarios and queries")
)

const queriesPerScenario = 20

// TestDifferentialSQL is the tentpole check: every generated query must
// produce the same result bag on the hostdb row interpreter, RAPID ModeX86,
// RAPID ModeDPU and an alternate small-chunk/RLE physical layout. Short mode
// runs the default 200 queries; raise with -qgen.n for soak runs.
func TestDifferentialSQL(t *testing.T) {
	n := *flagN
	executed, rejected := 0, 0
	for scen := 0; executed < n; scen++ {
		g := New(*flagSeed + int64(scen)*1_000_003)
		r, err := NewRunner(g.NewScenario())
		if err != nil {
			t.Fatalf("scenario %d: %v", scen, err)
		}
		for i := 0; i < queriesPerScenario && executed < n; i++ {
			q := g.NextQuery()
			if m := r.Check(q); m != nil {
				m.Minimized = r.Minimize(m.SQL)
				t.Fatalf("%s", m.Reproducer())
			}
			executed++
		}
		if m := r.CheckJournal(); m != nil {
			t.Fatalf("%s", m.Reproducer())
		}
		rejected += r.Rejected
	}
	t.Logf("differential: %d queries checked across %d engines (%d rejected consistently)",
		executed, len(engines), rejected)
}

// TestMetamorphicTLP checks ternary-logic partitioning: Q ≡ Q WHERE p ⊎
// Q WHERE NOT p ⊎ Q WHERE p IS NULL on all three engines.
func TestMetamorphicTLP(t *testing.T) {
	n := *flagN / 4
	if n < 30 {
		n = 30
	}
	checked := 0
	for scen := 0; checked < n; scen++ {
		g := New(*flagSeed + 7777 + int64(scen)*1_000_003)
		r, err := NewRunner(g.NewScenario())
		if err != nil {
			t.Fatalf("scenario %d: %v", scen, err)
		}
		for i := 0; i < queriesPerScenario && checked < n; i++ {
			q := g.NextQuery()
			if !q.TLPable() {
				continue
			}
			if m := r.CheckTLP(q); m != nil {
				t.Fatalf("%s", m.Reproducer())
			}
			checked++
		}
		if m := r.CheckJournal(); m != nil {
			t.Fatalf("%s", m.Reproducer())
		}
	}
	t.Logf("tlp: %d queries partition-checked", checked)
}

// TestMetamorphicTautology checks that tautological conjuncts preserve the
// result bag and contradictory conjuncts stay engine-consistent.
func TestMetamorphicTautology(t *testing.T) {
	n := *flagN / 4
	if n < 30 {
		n = 30
	}
	checked := 0
	for scen := 0; checked < n; scen++ {
		g := New(*flagSeed + 424242 + int64(scen)*1_000_003)
		r, err := NewRunner(g.NewScenario())
		if err != nil {
			t.Fatalf("scenario %d: %v", scen, err)
		}
		for i := 0; i < queriesPerScenario && checked < n; i++ {
			q := g.NextQuery()
			if !q.TautologyOK() {
				continue
			}
			if m := r.CheckTautology(q); m != nil {
				t.Fatalf("%s", m.Reproducer())
			}
			checked++
		}
		if m := r.CheckJournal(); m != nil {
			t.Fatalf("%s", m.Reproducer())
		}
	}
	t.Logf("tautology: %d queries checked", checked)
}

// TestMetamorphicPruning checks that zone-map pruning never changes an
// answer: every generated query runs with pruning force-disabled and enabled
// on every RAPID lane plus a 3-node tray, and the result bags must match.
// The pruned runs keep profiling on, so the pruned+scanned == total-tiles
// accounting invariant is soak-checked alongside.
func TestMetamorphicPruning(t *testing.T) {
	n := *flagN / 4
	if n < 30 {
		n = 30
	}
	checked := 0
	for scen := 0; checked < n; scen++ {
		g := New(*flagSeed + 555_001 + int64(scen)*1_000_003)
		r, err := NewRunner(g.NewScenario())
		if err != nil {
			t.Fatalf("scenario %d: %v", scen, err)
		}
		if err := r.EnableTrays([]int{3}); err != nil {
			r.Close()
			t.Fatalf("scenario %d: %v", scen, err)
		}
		for i := 0; i < queriesPerScenario && checked < n; i++ {
			q := g.NextQuery()
			if m := r.CheckPruningMetamorphic(q.SQL()); m != nil {
				m.Minimized = r.Minimize(m.SQL)
				t.Fatalf("%s", m.Reproducer())
			}
			checked++
		}
		if m := r.CheckJournal(); m != nil {
			t.Fatalf("%s", m.Reproducer())
		}
		r.Close()
	}
	t.Logf("pruning metamorphic: %d queries checked pruned-vs-unpruned", checked)
}

// TestWorkerCountInvariance is the determinism gate: every generated query
// returns a byte-identical relation, row order included, at 1, 2 and 8
// workers on the host X86 lanes — no result may depend on which work unit
// finished first or on how the units were spread over cores.
func TestWorkerCountInvariance(t *testing.T) {
	n := *flagN / 4
	if n < 30 {
		n = 30
	}
	checked := 0
	for scen := 0; checked < n; scen++ {
		g := New(*flagSeed + 808_017 + int64(scen)*1_000_003)
		r, err := NewRunner(g.NewScenario())
		if err != nil {
			t.Fatalf("scenario %d: %v", scen, err)
		}
		for i := 0; i < queriesPerScenario && checked < n; i++ {
			q := g.NextQuery()
			if m := r.CheckWorkerInvariance(q.SQL()); m != nil {
				m.Minimized = r.Minimize(m.SQL)
				t.Fatalf("%s", m.Reproducer())
			}
			checked++
		}
		if m := r.CheckJournal(); m != nil {
			t.Fatalf("%s", m.Reproducer())
		}
		r.Close()
	}
	t.Logf("worker invariance: %d queries checked at 1/2/8 workers", checked)
}

// TestConcurrentDifferential is the scheduler-facing lane of the soak: every
// generated query additionally runs on 6 concurrent sessions sharing the two
// databases (and therefore their shared-SoC schedulers), each compared
// against a serial host-oracle run. Run with -race to make it a scheduler
// race detector as well as a differential check.
func TestConcurrentDifferential(t *testing.T) {
	n := *flagN / 4
	if n < 30 {
		n = 30
	}
	const parallel = 6
	executed := 0
	for scen := 0; executed < n; scen++ {
		g := New(*flagSeed + 31337 + int64(scen)*1_000_003)
		r, err := NewRunner(g.NewScenario())
		if err != nil {
			t.Fatalf("scenario %d: %v", scen, err)
		}
		for i := 0; i < queriesPerScenario && executed < n; i++ {
			q := g.NextQuery()
			if m := r.CheckConcurrent(q.SQL(), parallel); m != nil {
				m.Minimized = r.Minimize(m.SQL)
				t.Fatalf("%s", m.Reproducer())
			}
			executed++
		}
		if m := r.CheckJournal(); m != nil {
			t.Fatalf("%s", m.Reproducer())
		}
		r.Close()
	}
	t.Logf("concurrent: %d queries checked on %d simultaneous sessions", executed, parallel)
}

// TestGeneratorDeterminism pins the replayability contract: the same seed
// must regenerate the identical scenario and query stream.
func TestGeneratorDeterminism(t *testing.T) {
	const seed = 99
	g1, g2 := New(seed), New(seed)
	s1, s2 := g1.NewScenario(), g2.NewScenario()
	if s1.Dump() != s2.Dump() {
		t.Fatalf("scenario dumps differ for the same seed:\n%s\nvs\n%s", s1.Dump(), s2.Dump())
	}
	for i := 0; i < 50; i++ {
		a, b := g1.NextQuery().SQL(), g2.NextQuery().SQL()
		if a != b {
			t.Fatalf("query %d differs for the same seed:\n%s\nvs\n%s", i, a, b)
		}
	}
}

// TestRendererRoundTrip checks render(parse(q)) is re-parseable and stable
// for generated queries — the invariant the minimizer depends on.
func TestRendererRoundTrip(t *testing.T) {
	g := New(7)
	g.NewScenario()
	for i := 0; i < 100; i++ {
		sql := g.NextQuery().SQL()
		for _, v := range shrinkVariants(sql) {
			if _, err := sqlparse.Parse(v); err != nil {
				t.Fatalf("rendered shrink candidate does not re-parse: %v\n  base: %s\n  cand: %s", err, sql, v)
			}
		}
	}
}
