package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"rapid/internal/cluster"
	"rapid/internal/hostdb"
	"rapid/internal/ops"
	"rapid/internal/plan"
	"rapid/internal/qcomp"
	"rapid/internal/qef"
	"rapid/internal/sched"
	"rapid/internal/sqlparse"
	"rapid/internal/storage"
)

// minTracedPasses traced passes run even when the time budget is spent, so
// every per-layer median has samples behind it.
const minTracedPasses = 3

// closureTolerance is how far the hand-walked lifecycle may differ from the
// public call it decomposes before the run is flagged.
const closureTolerance = 0.05

// catalog exposes the loaded RAPID replicas to the binder, as the host
// database's own adapter does.
type catalog struct{ db *hostdb.Database }

func (c catalog) Lookup(name string) (*storage.Table, error) {
	t, err := c.db.Table(name)
	if err != nil {
		return nil, err
	}
	if t.Rapid() == nil {
		return nil, fmt.Errorf("table %q not loaded into RAPID", name)
	}
	return t.Rapid(), nil
}

// stmtTrace collects one statement's samples over the traced passes.
type stmtTrace struct {
	public   []float64 // public call, ms
	profiled []float64 // public call with Profile on, ms
	staged   []float64 // Σ of the stages the public call also runs, ms
	stage    map[string][]float64
	execCPU  []float64
	hostShr  []float64
	opWall   map[string][]float64 // per operator bucket, ms
	tray     []float64            // Tray.Query, ms
	trayTr   []float64            // Tray.Query with Trace on, ms
}

// tracedPasses is the separate traced run: for every statement it calls the
// public entry point plain and with profiling on, then walks the same
// lifecycle by hand — normalize → parse → bind → cost → compile → admit →
// execute → release → render — with a span around every call into a layer.
// The per-layer metrics are medians over the traced passes; the spans are
// written out as a Chrome trace when the run ends.
func (r *runner) tracedPasses(layer map[string]float64, budget time.Duration) error {
	tr := newTracer()
	traces := make([]stmtTrace, len(r.stmts))
	for i := range traces {
		traces[i].stage = map[string][]float64{}
		traces[i].opWall = map[string][]float64{}
	}
	start := time.Now()
	n := 0
	for ; n < minTracedPasses || (r.opts.passes == 0 && time.Since(start) < budget); n++ {
		runtime.GC()
		tr.lane = n + 1
		for i, st := range r.stmts {
			if err := r.traceStatement(tr, n, st, &traces[i]); err != nil {
				return fmt.Errorf("traced pass, %s: %w", st.name, err)
			}
		}
	}

	nst := float64(len(r.stmts))
	perStmt := func(get func(*stmtTrace) []float64) float64 { // mean over statements of medians
		var sum float64
		for i := range traces {
			sum += median(get(&traces[i]))
		}
		return sum / nst
	}
	stageUs := func(name string) float64 {
		return perStmt(func(t *stmtTrace) []float64 { return t.stage[name] }) * 1e3
	}
	layer["sqlparse.normalize_us"] = stageUs("sqlparse.Normalize")
	layer["sqlparse.parse_us"] = stageUs("sqlparse.Parse")
	layer["sqlparse.bind_us"] = stageUs("sqlparse.Bind")
	layer["plan.clone_us"] = stageUs("plan.CloneAtSCN")
	layer["qcomp.cost_us"] = stageUs("qcomp.OffloadBenefit")
	layer["qcomp.compile_us"] = stageUs("qcomp.Compile")
	layer["sched.admit_us"] = stageUs("sched.Admit") + stageUs("sched.Release")
	layer["qef.execute_ms"] = stageUs("qef.Execute") / 1e3
	layer["qef.execute_cpu_ms"] = perStmt(func(t *stmtTrace) []float64 { return t.execCPU })
	layer["hostdb.host_share"] = perStmt(func(t *stmtTrace) []float64 { return t.hostShr })
	for _, b := range opBuckets {
		var sum float64
		for i := range traces {
			sum += median(traces[i].opWall[b])
		}
		layer["ops."+b+".wall_ms"] = sum
	}

	var public, staged float64
	var profRatio, traceRatio, trayRatio []float64
	for i := range traces {
		t := &traces[i]
		p, s := median(t.public), median(t.staged)
		public += p
		staged += s
		profRatio = append(profRatio, median(t.profiled)/p)
		if r.eng.tray != nil {
			traceRatio = append(traceRatio, median(t.trayTr)/median(t.tray))
			trayRatio = append(trayRatio, median(t.tray)/p)
		} else {
			traceRatio = append(traceRatio, s/p)
		}
	}
	layer["hostdb.glue_us"] = (public - staged) / nst * 1e3
	layer["obs.profile_overhead_ratio"] = geomean(profRatio)
	layer["obs.trace_overhead_ratio"] = geomean(traceRatio)
	layer["cluster.overhead_ratio"] = 0
	if r.eng.tray != nil {
		layer["cluster.overhead_ratio"] = geomean(trayRatio)
	}
	if gap := math.Abs(staged/public - 1); gap > closureTolerance {
		r.notes = append(r.notes, fmt.Sprintf(
			"trace closure: staged parts sum to %.3f ms, the public call takes %.3f ms (%.1f %% apart, tolerance %.0f %%)",
			staged, public, 100*gap, 100*closureTolerance))
	}

	fmt.Fprintf(os.Stderr, "traced passes: %d\n", n)
	tr.printSelfTimes(os.Stderr)
	if err := tr.writeChrome(r.opts.traceOut); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// traceStatement records one statement's spans in one traced pass: the
// public call, the profiled public call and the hand-walked lifecycle — in
// an order rotated by the pass number, so that none of the three always runs
// on its predecessor's garbage — then, on tray4, the tray's calls.
func (r *runner) traceStatement(tr *tracer, pass int, st statement, t *stmtTrace) error {
	root := tr.begin("statement", st.name, -1)
	defer tr.end(root)
	var public, staged *ops.Relation
	variants := []func() error{
		func() (err error) { public, err = r.tracePublic(tr, root, st, t); return },
		func() error { return r.traceProfiled(tr, root, st, t) },
		func() (err error) { staged, err = r.traceStaged(tr, root, st, t); return },
	}
	for i := range variants {
		if err := variants[(i+pass)%len(variants)](); err != nil {
			return err
		}
	}
	if viewOf(staged).digest() != viewOf(public).digest() {
		return fmt.Errorf("hand-walked execution returned a different result than the public call")
	}
	if r.eng.tray != nil {
		return r.traceTray(tr, root, st, t)
	}
	return nil
}

// tracePublic times the single-SoC public call, cache bypassed.
func (r *runner) tracePublic(tr *tracer, root int, st statement, t *stmtTrace) (*ops.Relation, error) {
	id := tr.begin("hostdb.Query", st.name, root)
	res, err := r.eng.host.Query(st.sql, socOptions(qef.ModeX86))
	t.public = append(t.public, ms(tr.end(id)))
	if err != nil {
		return nil, err
	}
	t.hostShr = append(t.hostShr, 1-res.RapidFraction())
	return res.Rel, nil
}

// traceProfiled times the public call with the per-operator profile on and
// files the operators' wall time by bucket.
func (r *runner) traceProfiled(tr *tracer, root int, st statement, t *stmtTrace) error {
	opts := socOptions(qef.ModeX86)
	opts.Profile = true
	id := tr.begin("hostdb.Query+profile", st.name, root)
	res, err := r.eng.host.Query(st.sql, opts)
	t.profiled = append(t.profiled, ms(tr.end(id)))
	if err != nil {
		return err
	}
	if res.Profile == nil {
		return fmt.Errorf("no profile: %s", res.ProfileNote)
	}
	opWall := map[string]float64{}
	for _, op := range res.Profile.Summary().Ops {
		opWall[opBucket(op.Name)] += op.WallMs
	}
	for _, b := range opBuckets {
		t.opWall[b] = append(t.opWall[b], opWall[b])
	}
	return nil
}

// traceStaged walks the public call's lifecycle by hand, a span around every
// call into a layer, and returns the relation it produced.
func (r *runner) traceStaged(tr *tracer, root int, st statement, t *stmtTrace) (*ops.Relation, error) {
	host := r.eng.host
	walk := tr.begin("staged", st.name, root)
	defer tr.end(walk)
	var (
		stmt     *sqlparse.SelectStmt
		node     plan.Node
		compiled *qcomp.Compiled
		ctx      *qef.Context
		adm      *sched.Admission
		rel      *ops.Relation
	)
	scn := host.CurrentSCN()
	// public marks the stages the public call runs too; clone and render are
	// measured beside them (a plan-cache hit clones the bound skeleton
	// instead of parsing and binding; rendering is the caller's).
	steps := []struct {
		name   string
		public bool
		fn     func() error
	}{
		{"sqlparse.Normalize", true, func() error { _, err := sqlparse.Normalize(st.sql); return err }},
		{"sqlparse.Parse", true, func() (err error) { stmt, err = sqlparse.Parse(st.sql); return }},
		{"sqlparse.Bind", true, func() (err error) { node, err = sqlparse.Bind(stmt, catalog{host}, scn); return }},
		{"qcomp.OffloadBenefit", true, func() error { qcomp.OffloadBenefit(node); return nil }},
		{"qcomp.Compile", true, func() (err error) { compiled, err = qcomp.Compile(node); return }},
		{"sched.Admit", true, func() (err error) {
			ctx = qef.NewContext(qef.ModeX86)
			ctx.Metrics = host.Metrics()
			adm, err = host.Scheduler().Admit(context.Background(), sched.Request{Cores: ctx.Workers()})
			return
		}},
		{"qef.Execute", true, func() (err error) {
			ctx.SetGoContext(context.Background())
			ctx.Exec = adm
			c0 := cpuNow()
			rel, err = compiled.Execute(ctx)
			t.execCPU = append(t.execCPU, ms(cpuNow()-c0))
			return
		}},
		{"sched.Release", true, func() error { adm.Release(); return nil }},
		{"plan.CloneAtSCN", false, func() error { _, err := plan.CloneAtSCN(node, scn); return err }},
		{"render", false, func() error {
			for row := 0; row < rel.Rows(); row++ {
				for col := 0; col < rel.NumCols(); col++ {
					_ = rel.Render(row, col)
				}
			}
			return nil
		}},
	}
	var sum time.Duration
	for _, s := range steps {
		id := tr.begin(s.name, st.name, walk)
		err := s.fn()
		d := tr.end(id)
		if err != nil {
			if adm != nil {
				adm.Release() // idempotent
			}
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		t.stage[s.name] = append(t.stage[s.name], ms(d))
		if s.public {
			sum += d
		}
	}
	t.staged = append(t.staged, ms(sum))
	return rel, nil
}

// traceTray times the tray's public call, plain and with distributed tracing
// on; the recorded steps become child spans.
func (r *runner) traceTray(tr *tracer, root int, st statement, t *stmtTrace) error {
	id := tr.begin("cluster.Tray.Query", st.name, root)
	_, err := r.eng.tray.Query(st.sql, cluster.QueryOptions{Mode: qef.ModeX86, NoCache: true})
	t.tray = append(t.tray, ms(tr.end(id)))
	if err != nil {
		return err
	}
	id = tr.begin("cluster.Tray.Query+trace", st.name, root)
	tres, err := r.eng.tray.Query(st.sql, cluster.QueryOptions{Mode: qef.ModeX86, NoCache: true, Trace: true})
	t.trayTr = append(t.trayTr, ms(tr.end(id)))
	if err != nil {
		return err
	}
	var offset time.Duration
	for _, step := range tres.Trace {
		var wall float64 // the slowest node bounds a barrier-synchronised fragment
		for _, p := range step.NodeProfiles {
			if p != nil && p.Totals().WallSeconds > wall {
				wall = p.Totals().WallSeconds
			}
		}
		if step.Coord != nil {
			wall = step.Coord.Totals().WallSeconds
		}
		args := map[string]any{}
		if ex := step.Exchange; ex != nil {
			args["kind"], args["moved_rows"], args["moved_bytes"] = ex.Kind, ex.MovedRows, ex.MovedBytes
		}
		d := time.Duration(wall * float64(time.Second))
		tr.child("tray:"+step.Label, id, offset, d, args)
		offset += d
	}
	return nil
}
