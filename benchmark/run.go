package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"rapid"
	"rapid/internal/power"
	"rapid/internal/tpch"
)

// Run shape. FROZEN: pass structure is part of every recorded number.
const (
	warmupPasses = 2 // discarded: plan caches, pools and page tables fill
	minPasses    = 3
	verifyEvery  = 10 // htap_refresh: oracle re-check cadence, in rounds
	// htap_refresh: every reloadEvery rounds, off the clock, lineitem is
	// re-LOADed. The engine never compacts applied update units, so every
	// checkpointed statement makes each later compile slower (≈ 10 ms per
	// round here); without the reload a round's cost would depend on how many
	// rounds the box managed before it, and no estimator over rounds would
	// repeat. With it, rounds cycle through chains of 1–reloadEvery batches.
	reloadEvery = 8
)

// options selects one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64 // measuring time; split between plain and traced passes when trace is set
	trace    bool
	traceOut string  // Chrome trace file of a traced run
	passes   int     // > 0: that many timed passes instead of a duration (tests)
	sf       float64 // scale factor; the frozen scaleFactor unless a test shrinks it
}

// passSample is everything measured in one timed pass.
type passSample struct {
	StartMs float64     `json:"start_ms"` // since the first timed pass began
	Cal     []float64   `json:"cal_ms"`   // the kernel executions timed just before the pass
	WallMs  float64     `json:"wall_ms"`  // the whole pass on the clock: every statement once, or the htap round
	CPUMs   float64     `json:"cpu_ms"`   // process CPU (user+sys) over the same window
	StmtMs  [][]float64 `json:"stmt_ms"`  // per statement, the wall of every execution in this pass
	ops     int         // statements executed
	// htap_refresh write phase
	dmlMs, checkpointMs float64
	mallocs, allocBytes uint64
	journaled           int64 // query-journal records written during the timed part
}

// runner carries one run's state from set-up to the report.
type runner struct {
	opts  options
	w     *workloadDef
	stmts []statement
	eng   *engine
	cal   *calibrator
	rng   *rand.Rand

	want []digest // per statement, the oracle's digest on the current snapshot

	attempted, failed int
	notes             []string // first few failures, for the report

	passes    []passSample
	hitMs     []float64 // latency of result-cache hits
	status    map[string]int
	queueWait time.Duration
	queries   int

	baseRows   int             // lineitem rows at load time: the DML target range
	insertPool [][]rapid.Value // lineitem rows the htap write phase appends copies of
	round      int             // passes run so far, warm-up included
	// previous pass's wall time and kernel mean: they size the next calibration
	prevPassMs, prevKernelMs float64
	cache0                   rapid.CacheStats
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// cpuNow returns the process CPU time (user+sys) so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runWorkload executes one complete benchmark run and returns its report.
func runWorkload(opts options) (*report, error) {
	w, ok := workloadByName(opts.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opts.workload)
	}
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	stmts, err := buildStatements(w, opts.seed)
	if err != nil {
		return nil, err
	}
	rep := newReport(opts, procs)
	r := &runner{opts: opts, w: w, stmts: stmts, cal: newCalibrator(procs),
		rng: rand.New(rand.NewSource(opts.seed)), status: map[string]int{}}

	t0 := time.Now()
	data := tpch.Generate(tpch.Config{ScaleFactor: opts.sf, Seed: dataSeed})
	generate := time.Since(t0)
	lineitem := data.Tables["lineitem"]
	r.baseRows = len(lineitem)
	for i := 0; i < 1024; i++ {
		r.insertPool = append(r.insertPool, lineitem[r.rng.Intn(len(lineitem))])
	}

	// Set-up, setupReps times; the last one is kept and used.
	phases := make([]setupPhases, 0, setupReps)
	var setupCal [][]float64 // kernel executions timed before each set-up and after the last
	for i := 0; i < setupReps; i++ {
		if r.eng != nil {
			r.eng.close()
			r.eng = nil
		}
		runtime.GC()
		setupCal = append(setupCal, r.cal.sample(calPerSetup))
		eng, ph, err := setUp(w.engine, data)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.eng = eng
		phases = append(phases, ph)
	}
	defer r.eng.close()
	setupCal = append(setupCal, r.cal.sample(calPerSetup))
	// The heap right after set-up, before any query: replica, host rows,
	// dictionaries, tray shards. The generated rows are dead by now (only
	// insertPool's 1024 rows live on).
	runtime.GC()
	runtime.GC()
	var msAfterSetup runtime.MemStats
	runtime.ReadMemStats(&msAfterSetup)

	sim, layer, err := r.verifyAll()
	if err != nil {
		return nil, err
	}

	for i := 0; i < warmupPasses; i++ {
		r.pass(nil)
	}
	// The cache-interaction tallies describe the timed passes only.
	r.status, r.hitMs, r.queueWait, r.queries = map[string]int{}, nil, 0, 0
	if r.eng.pub != nil {
		r.cache0 = r.eng.pub.CacheStats()
	}
	runtime.GC()
	runtime.GC()
	var msAfterWarm runtime.MemStats
	runtime.ReadMemStats(&msAfterWarm)

	budget := time.Duration(opts.seconds * float64(time.Second))
	if opts.trace {
		budget /= 2
	}
	units0 := r.counter("qef_work_units_total")
	grows0 := r.counter("qef_pool_grows_total")
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	start := time.Now()
	for n := 0; ; n++ {
		if opts.passes > 0 {
			if n >= opts.passes {
				break
			}
		} else if n >= minPasses && time.Since(start) >= budget {
			break
		}
		ps := passSample{StartMs: ms(time.Since(start))}
		r.pass(&ps)
		r.passes = append(r.passes, ps)
	}
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	timedQueries := r.queries
	var journaled int64
	for _, ps := range r.passes {
		journaled += ps.journaled
	}
	if int(journaled) != timedQueries {
		r.fail("journal recorded %d queries, %d were issued", journaled, timedQueries)
	}

	// End-to-end metrics.
	agg := aggregate(r.passes, len(r.stmts))
	// Set-up time in seconds at the box's nominal speed: each set-up's wall
	// time, scaled by how much slower than nominal the kernel ran around it.
	setupS := make([]float64, len(phases))
	for i, ph := range phases {
		kernelMs, _ := meanStddev(append(append([]float64(nil), setupCal[i]...), setupCal[i+1]...))
		setupS[i] = ph.total.Seconds() * calNominalMs / kernelMs
	}
	rep.endToEnd("setup_s", median(setupS), len(setupS))
	rep.endToEnd("query_cu", agg.queryCu, agg.stmtSamples)
	rep.endToEnd("pass_cu", agg.passCu, len(r.passes))
	rep.endToEnd("cpu_cu", agg.cpuCu, len(r.passes))
	rep.endToEnd("sim_ms", sim.simSec*1e3, len(r.stmts))
	rep.endToEnd("energy_mj", sim.energyJ*1e3, len(r.stmts))
	rep.endToEnd("heap_mb", float64(msAfterSetup.HeapAlloc)/(1<<20), 1)

	// Per-layer metrics that fall out of the plain passes.
	last := phases[len(phases)-1]
	replica, err := r.eng.replicaBytes()
	if err != nil {
		return nil, err
	}
	nq := float64(timedQueries)
	var mallocs, allocBytes uint64
	var dml, ckpt []float64
	for _, ps := range r.passes {
		mallocs += ps.mallocs
		allocBytes += ps.allocBytes
		if w.htap {
			dml = append(dml, ps.dmlMs*1e3/float64(htapUpdates+htapInserts))
			ckpt = append(ckpt, ps.checkpointMs)
		}
	}
	layer["storage.generate_s"] = generate.Seconds()
	layer["storage.load_s"] = (last.insert + last.load).Seconds()
	layer["storage.replica_mb"] = float64(replica) / (1 << 20)
	layer["storage.dml_us_per_row"] = median(dml)
	layer["storage.checkpoint_ms"] = median(ckpt)
	layer["cluster.load_s"] = last.cluster.Seconds()
	layer["sched.queue_wait_ms"] = ms(r.queueWait) / nq
	layer["sched.work_units"] = float64(r.counter("qef_work_units_total")-units0) / nq
	layer["mem.allocs_per_query"] = float64(mallocs) / nq
	layer["mem.alloc_kb_per_query"] = float64(allocBytes) / 1024 / nq
	layer["mem.heap_warm_mb"] = float64(msAfterWarm.HeapAlloc) / (1 << 20)
	layer["mem.pool_grows"] = float64(r.counter("qef_pool_grows_total") - grows0)
	// One forced collection opens every pass; only the rest are the
	// workload's own.
	layer["mem.gc_cycles"] = float64(int(gc1.NumGC-gc0.NumGC) - len(r.passes))
	layer["mem.gc_pause_ms"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6
	layer["obs.journal_records"] = float64(journaled)
	r.cacheLayer(layer, timedQueries)
	r.clientLayer(layer, agg)

	if opts.trace {
		if err := r.tracedPasses(layer, budget); err != nil {
			return nil, err
		}
	}
	rep.setLayer(layer)
	rep.finish(r, agg)
	return rep, nil
}

// counter reads an engine counter from the registry the workload's engine
// reports into.
func (r *runner) counter(name string) int64 {
	if r.eng.tray != nil {
		return r.eng.tray.Metrics().Counter(name).Value() + r.eng.host.Metrics().Counter(name).Value()
	}
	return r.eng.host.Metrics().Counter(name).Value()
}

// verifyAll is the correctness gate run before any timing: every statement
// on the System X row engine (the oracle), on the workload's timed lane and
// in ModeDPU must return the same bag of rows on the same snapshot, and the
// ModeDPU profile must satisfy its cycle and energy invariants. The ModeDPU
// pass also yields the deterministic currencies (sim_ms, energy_mj) and the
// dpu/dms/power layer metrics.
func (r *runner) verifyAll() (simStats, map[string]float64, error) {
	var total simStats
	layer := map[string]float64{}
	opCycles := map[string]float64{}
	r.want = make([]digest, len(r.stmts))
	rd0, wr0 := r.counter("rapid_dms_read_bytes_total"), r.counter("rapid_dms_write_bytes_total")
	desc0, idle0 := r.counter("rapid_dms_descriptors_total"), r.counter("rapid_idle_energy_nanojoules_total")
	var hostMs, speedup []float64
	for i, st := range r.stmts {
		t0 := time.Now()
		ref, err := r.eng.oracle(st.sql)
		hostWall := time.Since(t0)
		r.attempted++
		if err != nil {
			return total, nil, fmt.Errorf("%s on the row engine: %w", st.name, err)
		}
		r.want[i] = ref.digest()

		t0 = time.Now()
		got, err := r.eng.query(st.sql)
		rapidWall := time.Since(t0)
		r.attempted++
		if err != nil {
			r.fail("%s timed lane: %v", st.name, err)
		} else if d := got.view.digest(); d != r.want[i] {
			r.fail("%s timed lane: digest %v, row engine %v", st.name, d, r.want[i])
		}
		hostMs = append(hostMs, ms(hostWall))
		speedup = append(speedup, float64(hostWall)/float64(rapidWall))

		view, err := r.eng.simulate(st.sql, opCycles, &total)
		r.attempted++
		if err != nil {
			r.fail("%s ModeDPU: %v", st.name, err)
		} else if d := view.digest(); d != r.want[i] {
			r.fail("%s ModeDPU: digest %v, row engine %v", st.name, d, r.want[i])
		}
	}
	rd := r.counter("rapid_dms_read_bytes_total") - rd0
	wr := r.counter("rapid_dms_write_bytes_total") - wr0
	coreFJ, rdFJ, wrFJ := power.DefaultEnergyModel().ActivityFJ(total.cycles, rd, wr)
	layer["dpu.cycles"] = float64(total.cycles)
	layer["dpu.dmem_high_water_kb"] = float64(total.dmemHigh) / 1024
	layer["dms.read_bytes"] = float64(rd)
	layer["dms.write_bytes"] = float64(wr)
	layer["dms.descriptors"] = float64(r.counter("rapid_dms_descriptors_total") - desc0)
	layer["power.core_mj"] = float64(coreFJ) / power.FJPerJoule * 1e3
	layer["power.dms_mj"] = float64(rdFJ+wrFJ) / power.FJPerJoule * 1e3
	layer["power.idle_mj"] = float64(r.counter("rapid_idle_energy_nanojoules_total")-idle0) / 1e6
	layer["storage.tiles_total"] = float64(total.tilesTotal)
	layer["storage.tiles_pruned"] = float64(total.tilesPruned)
	layer["cluster.net_bytes"] = float64(total.netBytes)
	layer["cluster.moved_rows"] = float64(total.movedRows)
	layer["cluster.net_ms_sim"] = total.netSec * 1e3
	layer["cluster.node_ms_sim"] = total.nodeSec * 1e3
	layer["cluster.coord_ms_sim"] = total.coordSec * 1e3
	layer["cluster.shards_pruned"] = float64(total.shardsPruned)
	for _, b := range opBuckets {
		layer["ops."+b+".cycles"] = opCycles[b]
	}
	layer["hostdb.row_engine_ms"] = geomean(hostMs)
	layer["hostdb.sw_speedup"] = geomean(speedup)
	return total, layer, nil
}

// execution is one timed query, kept so verification happens off the clock.
type execution struct {
	stmt int
	wall time.Duration
	res  timedResult
	err  error
}

// pass runs one pass of the workload — a GC, the calibration samples, then
// every statement once in seeded order (or one htap round) on the clock —
// and verifies every result afterwards. With ps nil the pass is a warm-up
// and nothing is recorded.
func (r *runner) pass(ps *passSample) {
	runtime.GC()
	cal := r.cal.sample(calCount(r.prevPassMs, r.prevKernelMs))
	if ps == nil {
		ps = &passSample{}
	}
	ps.Cal = cal
	r.prevKernelMs, _ = meanStddev(cal)
	ps.StmtMs = make([][]float64, len(r.stmts))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	j0 := r.eng.host.QueryJournal().Total()
	var execs []execution
	if r.w.htap {
		execs = r.htapRound(ps)
	} else {
		execs = r.closedLoopPass(ps)
	}
	ps.journaled = r.eng.host.QueryJournal().Total() - j0
	runtime.ReadMemStats(&m1)
	ps.mallocs, ps.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	r.prevPassMs = ps.WallMs
	r.verifyPass(ps, execs)
}

// closedLoopPass is one client issuing every statement once, its next
// request sent only when the previous one has completed.
func (r *runner) closedLoopPass(ps *passSample) []execution {
	order := r.rng.Perm(len(r.stmts))
	execs := make([]execution, 0, len(order))
	c0, t0 := cpuNow(), time.Now()
	for _, i := range order {
		q0 := time.Now()
		res, err := r.eng.query(r.stmts[i].sql)
		execs = append(execs, execution{stmt: i, wall: time.Since(q0), res: res, err: err})
	}
	ps.WallMs, ps.CPUMs = ms(time.Since(t0)), ms(cpuNow()-c0)
	return execs
}

// htapRound is one round of htap_refresh: the writer applies a seeded batch
// to lineitem and checkpoints it, then htapClients closed-loop readers each
// issue the statement set htapReps times in seeded order. The whole round is
// on the clock.
func (r *runner) htapRound(ps *passSample) []execution {
	pub := r.eng.pub
	const qtyCol, discCol = 4, 6 // l_quantity, l_discount
	inserts := make([][]rapid.Value, htapInserts)
	for i := range inserts {
		inserts[i] = r.insertPool[r.rng.Intn(len(r.insertPool))]
	}
	type cell struct {
		row, col int
		val      rapid.Value
	}
	updates := make([]cell, htapUpdates)
	for i := range updates {
		// Only rows present at load time: their host index maps onto the
		// replica's base chunks.
		u := cell{row: r.rng.Intn(r.baseRows), col: qtyCol, val: rapid.Int(int64(r.rng.Intn(50) + 1))}
		if i%2 == 1 {
			u.col, u.val = discCol, rapid.Decimal(fmt.Sprintf("0.%02d", r.rng.Intn(11)))
		}
		updates[i] = u
	}
	orders := make([][]int, htapClients)
	for c := range orders {
		for rep := 0; rep < htapReps; rep++ {
			orders[c] = append(orders[c], r.rng.Perm(len(r.stmts))...)
		}
	}

	c0, t0 := cpuNow(), time.Now()
	for _, u := range updates {
		r.attempted++
		if err := pub.Update("lineitem", u.row, u.col, u.val); err != nil {
			r.fail("update lineitem[%d]: %v", u.row, err)
		}
	}
	r.attempted++
	if err := pub.Insert("lineitem", inserts); err != nil {
		r.fail("insert into lineitem: %v", err)
	}
	tDML := time.Now()
	r.attempted++
	if err := pub.Checkpoint("lineitem"); err != nil {
		r.fail("checkpoint lineitem: %v", err)
	}
	tCkpt := time.Now()

	perClient := make([][]execution, htapClients)
	var wg sync.WaitGroup
	for c := 0; c < htapClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, i := range orders[c] {
				q0 := time.Now()
				res, err := r.eng.query(r.stmts[i].sql)
				perClient[c] = append(perClient[c], execution{stmt: i, wall: time.Since(q0), res: res, err: err})
			}
		}(c)
	}
	wg.Wait()
	ps.WallMs, ps.CPUMs = ms(time.Since(t0)), ms(cpuNow()-c0)
	ps.dmlMs, ps.checkpointMs = ms(tDML.Sub(t0)), ms(tCkpt.Sub(tDML))
	var execs []execution
	for _, e := range perClient {
		execs = append(execs, e...)
	}
	return execs
}

// verifyPass counts a pass's executions and checks every result. On the
// read-only workloads each must equal the row engine's result from
// verifyAll. In an htap round every execution of a lineitem statement saw
// the same data version, so all must agree; the agreed digest is re-checked
// against the row engine every verifyEvery rounds. The customer statement
// must keep matching the set-up oracle — and stay a result-cache hit.
func (r *runner) verifyPass(ps *passSample, execs []execution) {
	fresh := make([]bool, len(r.stmts))
	for _, x := range execs {
		st := r.stmts[x.stmt]
		ps.ops++
		ps.StmtMs[x.stmt] = append(ps.StmtMs[x.stmt], ms(x.wall))
		r.attempted++
		r.queries++
		if x.err != nil {
			r.fail("%s: %v", st.name, x.err)
			continue
		}
		r.status[x.res.cache]++
		r.queueWait += x.res.queueWait
		if x.res.cache == "hit" {
			r.hitMs = append(r.hitMs, ms(x.wall))
		}
		d := x.res.view.digest()
		switch {
		case !r.w.htap || !st.lineitem:
			if d != r.want[x.stmt] {
				r.fail("%s: result differs from the row engine's", st.name)
			}
			if r.w.htap && x.res.cache != "hit" {
				r.fail("%s: cache status %q, must stay a hit across rounds", st.name, x.res.cache)
			}
		case !fresh[x.stmt]:
			r.want[x.stmt], fresh[x.stmt] = d, true
		case d != r.want[x.stmt]:
			r.fail("%s: two executions in one round disagree (status %q)", st.name, x.res.cache)
		}
	}
	r.round++
	if !r.w.htap {
		return
	}
	if r.round%reloadEvery == 0 {
		r.attempted++
		if err := r.eng.pub.Load("lineitem"); err != nil {
			r.fail("reload lineitem: %v", err)
		}
	}
	if r.round%verifyEvery != 0 {
		return
	}
	for i, st := range r.stmts {
		if !st.lineitem {
			continue
		}
		r.attempted++
		ref, err := r.eng.oracle(st.sql)
		if err != nil {
			r.fail("%s on the row engine: %v", st.name, err)
		} else if ref.digest() != r.want[i] {
			r.fail("%s: post-write result differs from the row engine's", st.name)
		}
	}
}

// aggregates are the run's estimators over its timed passes.
type aggregates struct {
	queryCu, passCu, cpuCu float64
	stmtSamples            int       // samples behind the thinnest statement median
	calMs                  []float64 // per pass, the wall milliseconds of 1 cu
	allMs                  []float64 // every statement execution, raw ms
}

// aggregate turns pass samples into the calibrated estimators. Every wall or
// CPU sample is divided by the yardstick timed around its own pass — a slow
// phase of the box stretches both (process CPU time too: the time is stolen
// below the guest) — and medians are taken over passes, so a run that
// straddles a phase change still reads the same.
func aggregate(passes []passSample, nstmt int) aggregates {
	a := aggregates{stmtSamples: math.MaxInt}
	calWall := yardsticks(passes)
	a.calMs = calWall
	perStmt := make([][]float64, nstmt)
	var passCu, cpuCu []float64
	for k, ps := range passes {
		passCu = append(passCu, ps.WallMs/calWall[k])
		cpuCu = append(cpuCu, ps.CPUMs/float64(ps.ops)/calWall[k])
		for i, walls := range ps.StmtMs {
			for _, w := range walls {
				perStmt[i] = append(perStmt[i], w/calWall[k])
				a.allMs = append(a.allMs, w)
			}
		}
	}
	med := make([]float64, nstmt)
	for i, s := range perStmt {
		med[i] = median(s)
		if len(s) < a.stmtSamples {
			a.stmtSamples = len(s)
		}
	}
	a.queryCu, a.passCu, a.cpuCu = geomean(med), median(passCu), median(cpuCu)
	return a
}

// cacheLayer reports the query-cache layer: zero everywhere but
// htap_refresh, the only workload with a cache installed.
func (r *runner) cacheLayer(layer map[string]float64, timedQueries int) {
	var cs rapid.CacheStats
	if r.eng.pub != nil {
		cs = r.eng.pub.CacheStats()
	}
	layer["qcache.hit_ratio"] = float64(r.status["hit"]) / float64(timedQueries)
	layer["qcache.hit_us"] = median(r.hitMs) * 1e3
	layer["qcache.stale"] = float64(cs.Stale - r.cache0.Stale)
	layer["qcache.plan_hits"] = float64(cs.PlanHits - r.cache0.PlanHits)
	layer["qcache.shared"] = float64(cs.Shared - r.cache0.Shared)
	layer["qcache.resident_kb"] = float64(cs.ResidentBytes) / 1024
	layer["qcache.evictions"] = float64(cs.Evictions - r.cache0.Evictions)
}

// clientLayer reports the load generator's own raw numbers: context for
// reading a run taken in a slow phase, never gated.
func (r *runner) clientLayer(layer map[string]float64, a aggregates) {
	var passMs, cpuMs, wall float64
	var pm []float64
	ops := 0
	for _, ps := range r.passes {
		pm = append(pm, ps.WallMs)
		cpuMs += ps.CPUMs
		wall += ps.WallMs
		ops += ps.ops
	}
	passMs = median(pm)
	mean, sd := meanStddev(a.calMs)
	layer["client.query_ms_p50"] = percentile(a.allMs, 0.50)
	layer["client.query_ms_p95"] = percentile(a.allMs, 0.95)
	layer["client.pass_ms_p50"] = passMs
	layer["client.cpu_ms_per_query"] = cpuMs / float64(ops)
	layer["client.cal_ms"] = median(a.calMs)
	layer["client.cal_cv"] = sd / mean
	layer["client.loadavg"] = loadavg()
	layer["client.ops_per_s"] = float64(ops) / (wall / 1e3)
}

// loadavg reads the 1-minute load average; 0 where /proc is absent.
func loadavg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	var l float64
	fmt.Sscanf(string(b), "%f", &l)
	return l
}
