package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/hostdb"
	"rapid/internal/obs"
	"rapid/internal/ops"
	"rapid/internal/plan"
	"rapid/internal/power"
	"rapid/internal/qcomp"
	"rapid/internal/qef"
	"rapid/internal/sched"
	"rapid/internal/storage"
)

// QueryOptions tunes one tray query.
type QueryOptions struct {
	// Mode selects the per-node execution mode (ModeDPU simulates the SoC
	// timing model, ModeX86 runs the same kernels natively).
	Mode qef.Mode
	// Analyze renders the distributed EXPLAIN ANALYZE trace into
	// Result.Analyze. An `EXPLAIN ANALYZE <query>` SQL prefix sets it too.
	Analyze bool
	// Trace records per-node fragment profiles and exchange spans into
	// Result.Trace, ready for obs.TraceBuilder.AddDistributedQuery — one
	// stitched Chrome trace with a lane per node and flow events for every
	// cross-node data stream.
	Trace bool
	// DisablePruning turns off zone-map pruning at every level (shard
	// fragments at the coordinator, tiles inside each node). Metamorphic
	// test lanes use it to assert pruning never changes results.
	DisablePruning bool
	// NoCache bypasses the shared query cache for this query: no lookup, no
	// publication, and no singleflight participation.
	NoCache bool
}

// NodeStats is one node's resource consumption for a query.
type NodeStats struct {
	Cycles        int64
	DMSReadBytes  int64
	DMSWriteBytes int64
	SimSeconds    float64
}

// TrayEnergy is the energy decomposition of one distributed query:
// per-node + coordinator activity, interconnect transfer energy, and the
// idle floor of all N uncore domains over the query makespan. A ModeX86
// query runs on no dpCore: only its NetFJ is priced.
type TrayEnergy struct {
	ActivityFJ int64 // dpCore cycles + DMS bytes, all nodes + coordinator
	NetFJ      int64 // power.LinkEnergyFJ over every exchanged byte
	IdleJ      float64
}

// TotalJoules returns the whole-tray energy of the query.
func (e TrayEnergy) TotalJoules() float64 {
	return float64(e.ActivityFJ+e.NetFJ)/power.FJPerJoule + e.IdleJ
}

// Result is the outcome of one distributed query.
type Result struct {
	Rel   *ops.Relation
	Nodes int

	// QueryID is the fleet-wide identifier the query was journaled under
	// (shared with the host database's active-query table).
	QueryID uint64

	// SimSeconds is the modeled distributed makespan: the slowest node's
	// simulated time, plus the serialized interconnect time, plus the
	// coordinator's merge time.
	SimSeconds      float64
	NodeSimSeconds  float64 // max over nodes
	CoordSimSeconds float64
	NetSeconds      float64

	NetRows, NetBytes, NetTiles int64
	Exchanges                   []*obs.ExchangeSpan
	PerNode                     []NodeStats
	QueueWait                   time.Duration // max admission wait across nodes
	Energy                      TrayEnergy

	// TotalCycles is dpCore cycles across all nodes plus the coordinator
	// (the exact integer added to rapid_dpcore_cycles_total).
	TotalCycles int64
	// EnergyNJ is activity+idle energy in nanojoules — the exact integers
	// added to the energy counters, so journal sums reconcile with them
	// (ModeDPU only; zero otherwise).
	EnergyNJ int64
	// DMEMHighWater is the max DMEM bytes reserved on any dpCore of any
	// node during the query (ModeDPU only).
	DMEMHighWater int

	// ShardsPruned counts node fragments the coordinator skipped entirely
	// because the shard's zone summary proved the fragment empty; TilesPruned
	// sums the tiles zone maps skipped inside the nodes that did run.
	ShardsPruned int
	TilesPruned  int64

	// Cache reports the query's result-cache interaction: "hit", "miss",
	// "stale" (entry found but invalidated by a version mismatch), "bypass"
	// (NoCache or uncacheable), or "" when no cache is installed on the
	// host. Hits carry the producing execution's cost in CyclesSaved /
	// EnergySavedNJ and bill ~zero cycles, network traffic and energy.
	Cache         string
	CyclesSaved   int64
	EnergySavedNJ int64

	Explain string // logical plan (coordinator binding)
	Analyze string // distributed EXPLAIN ANALYZE (when requested)

	// Trace is the ordered fragment/exchange record for distributed trace
	// stitching (set when QueryOptions.Trace).
	Trace []obs.DistStep
}

// query is the per-execution state of one distributed query: the node and
// coordinator contexts, the cancellation fan-out, and the exchange trace.
type query struct {
	reg  *obs.Registry
	link LinkModel
	mode qef.Mode

	// outer is the caller's context; goCtx the derived cancelable context
	// every node executes under. Any node failure calls cancel, tearing
	// down the other nodes within one exchange tile / work unit.
	outer  context.Context
	goCtx  context.Context
	cancel context.CancelFunc

	nctx  []*qef.Context
	coord *qef.Context

	// shards is every referenced table's shard set, resolved once for the
	// whole query (Tray.resolve): bind reads node i's shard from it.
	shards map[string][]*storage.Table

	exchanges []*obs.ExchangeSpan
	analyze   bool     // QueryOptions.Analyze: record steps
	steps     []string // execution-order trace for EXPLAIN ANALYZE

	traceOn bool           // record fragment profiles + exchange spans
	trace   []obs.DistStep // stitched-trace steps, in execution order

	noPrune      bool // QueryOptions.DisablePruning, fanned to every context
	shardsPruned int  // node fragments skipped via shard zone summaries
}

func (q *query) nodes() int { return len(q.nctx) }

// step records one line of the EXPLAIN ANALYZE trace; nothing else reads
// the steps, so nothing is formatted unless the report was asked for.
func (q *query) step(format string, args ...any) {
	if q.analyze {
		q.steps = append(q.steps, fmt.Sprintf(format, args...))
	}
}

// Query executes a SQL query across the tray. See QueryCtx.
func (t *Tray) Query(sql string, opts QueryOptions) (*Result, error) {
	return t.QueryCtx(context.Background(), sql, opts)
}

// QueryCtx plans the query once at the coordinator — one tree, bound to a
// node's shard replicas only where a fragment of it is compiled — admits the
// query on every node's scheduler (all-or-nothing, in node order — ordered
// acquisition keeps concurrent tray queries deadlock-free), executes
// maximal node-local fragments in parallel with exchanges in between, and
// merges at the coordinator. Canceling goCtx (or any node failing) cancels
// every node within one exchange tile / scheduler work unit.
//
// Every query — including sheds, cancellations and failures — is journaled
// in the host database's query journal under a fleet-wide QueryID, and
// visible in the host's active-query table while it runs (cancel-by-ID
// tears the whole tray query down).
func (t *Tray) QueryCtx(goCtx context.Context, sql string, opts QueryOptions) (*Result, error) {
	return hostdb.RunQuery(goCtx, t.host, engine{t}, sql, opts)
}

// engine is the tray's side of the query lifecycle (hostdb.RunQuery): the
// coordinator catalog, distributed execution of a bound plan, and the
// tray-specific journal fields. The cache payloads and keys it supplies are
// in cache.go.
type engine struct{ t *Tray }

func (engine) Label(opts QueryOptions) string { return opts.Mode.String() }

func (e engine) Nodes() int { return e.t.NumNodes() }

// Lookup binds once against node 0's shards — one join order for all nodes
// even when per-shard statistics differ; Execute re-targets the plan at the
// shard set it resolves.
func (e engine) Lookup(name string) (*storage.Table, error) {
	e.t.mu.Lock()
	defer e.t.mu.Unlock()
	shards, err := e.t.shardsLocked(name)
	if err != nil {
		return nil, err
	}
	return shards[0], nil
}

func (e engine) Execute(goCtx context.Context, bound plan.Node, opts QueryOptions, h obs.ActiveHandle) (*Result, error) {
	res, _, err := e.t.execute(goCtx, bound, opts, h)
	return res, err
}

// Finish observes the tray latency histogram and fills the journal fields a
// distributed execution bills.
func (e engine) Finish(id uint64, res *Result, err error, opts QueryOptions, wall time.Duration) obs.QueryRecord {
	e.t.reg.Histogram("cluster_query_seconds", obs.DefLatencyBuckets...).Observe(wall.Seconds())
	rec := obs.QueryRecord{Mode: opts.Mode.String()}
	if err != nil {
		return rec
	}
	res.QueryID = id
	if res.Rel != nil {
		rec.Rows = int64(res.Rel.Rows())
	}
	rec.Cycles = res.TotalCycles
	rec.EnergyNJ = res.EnergyNJ
	rec.NetBytes = res.NetBytes
	rec.QueueWaitNs = int64(res.QueueWait)
	rec.DMEMHighNow = int64(res.DMEMHighWater)
	rec.Cache = res.Cache
	return rec
}

// execute runs a coordinator-bound plan across the tray and bills it. The
// finished per-execution state is returned beside the result so in-package
// tests can reconcile the billing with the contexts it was read from.
func (t *Tray) execute(goCtx context.Context, bound plan.Node, opts QueryOptions, h obs.ActiveHandle) (*Result, *query, error) {
	n := t.NumNodes()
	tree, shards, err := t.resolve(bound)
	if err != nil {
		return nil, nil, err
	}

	qctx, cancel := context.WithCancel(goCtx)
	defer cancel()
	q := &query{
		reg: t.reg, link: DefaultLinkModel(), mode: opts.Mode,
		outer: goCtx, goCtx: qctx, cancel: cancel,
		analyze: opts.Analyze,
		traceOn: opts.Trace,
		noPrune: opts.DisablePruning,
		shards:  shards,
	}

	// Per-node admission: each node's scheduler enforces its own
	// concurrency and queue limits; a single overloaded node sheds the
	// whole query (ErrOverloaded) after releasing what was admitted.
	h.SetPhase("queued")
	adms := make([]*sched.Admission, 0, n)
	defer func() {
		for _, a := range adms {
			a.Release()
		}
	}()
	for i := 0; i < n; i++ {
		ctx := qef.NewContext(opts.Mode)
		ctx.Metrics = t.reg
		ctx.NoPrune = opts.DisablePruning
		adm, aerr := t.nodes[i].sched.Admit(goCtx, sched.Request{Cores: ctx.Workers()})
		if aerr != nil {
			return nil, nil, aerr
		}
		adms = append(adms, adm)
		ctx.SetGoContext(qctx)
		ctx.Exec, ctx.Slab = adm, adm.Slab()
		q.nctx = append(q.nctx, ctx)
	}
	// Node relations are read only by the exchanges that copy them onto the
	// wire, so their chunks go back once the query is done.
	defer func() {
		for _, ctx := range q.nctx {
			ctx.Release()
		}
	}()
	h.SetPhase("executing")
	q.coord = qef.NewContext(opts.Mode)
	q.coord.Metrics = t.reg
	q.coord.NoPrune = opts.DisablePruning
	q.coord.SetGoContext(qctx)

	rel, err := q.exec(tree)
	if err != nil {
		if cerr := goCtx.Err(); cerr != nil {
			return nil, nil, cerr
		}
		return nil, nil, err
	}

	res := &Result{
		Rel: rel.Flat(), Nodes: n, // the coordinator's chunks are on the heap

		Exchanges:    q.exchanges,
		Explain:      plan.Format(bound),
		ShardsPruned: q.shardsPruned,
	}
	for _, ex := range q.exchanges {
		res.NetSeconds += ex.Seconds
		res.NetRows += ex.MovedRows
		res.NetBytes += ex.MovedBytes
		res.NetTiles += ex.Tiles
	}
	// Totals run over every node context and then the coordinator's; the
	// per-node breakdown, makespan and queue wait over the nodes only.
	var totRd, totWr, descriptors int64
	for i, ctx := range append(q.nctx[:n:n], q.coord) {
		u := ctx.Usage()
		cy, sim := u.Cycles(), u.SimElapsed()
		res.TotalCycles += cy
		totRd += u.Read.Bytes
		totWr += u.Write.Bytes
		descriptors += u.Descriptors()
		res.TilesPruned += u.TilesPruned
		if u.DMEMHighWater > res.DMEMHighWater {
			res.DMEMHighWater = u.DMEMHighWater
		}
		if i == n {
			res.CoordSimSeconds = sim
			break
		}
		res.PerNode = append(res.PerNode, NodeStats{
			Cycles: cy, DMSReadBytes: u.Read.Bytes, DMSWriteBytes: u.Write.Bytes, SimSeconds: sim,
		})
		if sim > res.NodeSimSeconds {
			res.NodeSimSeconds = sim
		}
		if w := adms[i].QueueWait(); w > res.QueueWait {
			res.QueueWait = w
		}
	}
	res.SimSeconds = res.NodeSimSeconds + res.NetSeconds + res.CoordSimSeconds

	// The link is priced in every mode. dpCore activity and the uncore idle
	// floor are a DPU execution's bill: a ModeX86 tray, like a ModeX86
	// offload on the host, bills neither.
	res.Energy.NetFJ = power.LinkEnergyFJ(res.NetBytes)
	if opts.Mode == qef.ModeDPU {
		em := power.DefaultEnergyModel()
		core, rdFJ, wrFJ := em.ActivityFJ(res.TotalCycles, totRd, totWr)
		res.Energy.ActivityFJ = core + rdFJ + wrFJ
		res.Energy.IdleJ = float64(n) * em.UncoreIdleWatts * res.SimSeconds
		actNJ, idleNJ := power.NanoJoules(res.Energy.ActivityFJ, res.Energy.IdleJ)
		res.EnergyNJ = actNJ + idleNJ
		hostdb.RecordRapidExecution(t.reg, res.TotalCycles, totRd, totWr, descriptors, int64(res.SimSeconds*1e6), actNJ, idleNJ)
	}
	t.reg.Histogram("rapid_query_net_bytes", obs.DefBytesBuckets...).Observe(float64(res.NetBytes))

	if opts.Analyze {
		res.Analyze = q.renderAnalyze(res)
	}
	res.Trace = q.trace
	return res, q, nil
}

// exec runs a plan tree and returns the combined (coordinator-side) result.
// The largest subtrees classify accepts run per node, with the exchanges
// their joins need; an aggregation over one distributes as whole groups or as
// partials; everything else merges at the coordinator.
func (q *query) exec(n plan.Node) (*ops.Relation, error) {
	if err := q.goCtx.Err(); err != nil {
		return nil, err
	}
	switch n := n.(type) {
	case *plan.GroupBy:
		if _, ok := classify(n.Input); ok {
			rec, err := q.localize(n.Input)
			if err != nil {
				return nil, err
			}
			return q.distributedGroupBy(n, rec)
		}
	case *plan.Scan, *plan.Filter, *plan.Project, *plan.Join:
		if _, ok := classify(n); ok {
			rec, err := q.localize(n)
			if err != nil {
				return nil, err
			}
			// Every node of a replicated fragment would produce the
			// identical relation: run it once and pull a single copy.
			parts, err := q.materialize(rec, rec.repl, "fragment")
			if err != nil {
				return nil, err
			}
			if rec.repl {
				parts = parts[:1]
			}
			return q.gather(parts, "result")
		}
	}
	return q.coordFragment(n)
}

// coordFragment executes one operator at the coordinator over the
// (recursively distributed) results of its children.
func (q *query) coordFragment(n plan.Node) (*ops.Relation, error) {
	kids := n.Children()
	inputs := make(map[plan.Node]*ops.Relation, len(kids))
	for _, kid := range kids {
		rel, err := q.exec(kid)
		if err != nil {
			return nil, err
		}
		inputs[kid] = rel
	}
	compiled, err := qcomp.CompileWithInputs(n, inputs)
	if err != nil {
		return nil, err
	}
	rel, prof, err := q.runFragment(q.coord, compiled)
	if err != nil {
		return nil, err
	}
	if prof != nil {
		q.trace = append(q.trace, obs.DistStep{Label: "coordinator " + opName(n), Coord: prof})
	}
	q.step("coordinator %s rows=%d", opName(n), rel.Rows())
	return rel, nil
}

// distributedGroupBy aggregates over a node-local input. When every group is
// complete on one node (groupLayout: a partition column among the keys, or a
// replicated input) the node-local aggregation is final and the groups are
// only gathered — one copy of them when replicated. Otherwise it takes two
// phases: the nodes compute qcomp.PartialAggs, and the coordinator folds the
// gathered partials with qcomp.MergePartials, the single SoC's merge and
// finalization — distributed answers stay bit-identical.
func (q *query) distributedGroupBy(g *plan.GroupBy, rec *recipe) (*ops.Relation, error) {
	_, whole := groupLayout(g, rec.layout)
	aggs := g.Aggs
	if !whole {
		aggs = qcomp.PartialAggs(g)
	}
	tree := &plan.GroupBy{Input: rec.tree, Keys: g.Keys, Aggs: aggs}
	label, result := "partial group-by", "partials"
	switch {
	case rec.repl:
		label, result = "group-by (replicated)", "result"
	case whole:
		label, result = "group-by", "groups"
	}
	// prunable=false: an aggregation over an empty input still yields
	// identity rows (scalar aggregates), so skipping the fragment would
	// change the answer. A replicated input needs one execution, one copy.
	parts, err := q.runNodes(tree, label, rec.repl, false)
	if err != nil {
		return nil, err
	}
	if rec.repl {
		parts = parts[:1]
	}
	gathered, err := q.gather(parts, result)
	if err != nil || whole {
		return gathered, err
	}
	out, err := qcomp.MergePartials(g, gathered)
	if err != nil {
		return nil, err
	}
	q.step("merge group-by groups=%d", out.Rows())
	return out, nil
}

// materialize executes a recipe's tree on the nodes, returning one relation
// per node (only node 0 when only0 — replicated fragments need a single
// execution).
func (q *query) materialize(rec *recipe, only0 bool, label string) ([]*ops.Relation, error) {
	// Materialized fragments merge with union semantics, so a fragment the
	// shard zones prove empty can be replaced by an empty relation.
	return q.runNodes(rec.tree, label, only0, true)
}

// runFragment executes one compiled fragment on ctx. A node context
// accumulates across every fragment of the query, so with tracing on the
// fragment's profile is finalized from the usage delta around it.
func (q *query) runFragment(ctx *qef.Context, compiled *qcomp.Compiled) (*ops.Relation, *obs.Profile, error) {
	if !q.traceOn {
		rel, err := compiled.Execute(ctx)
		return rel, nil, err
	}
	prof := obs.NewProfile(q.mode.String(), ctx.SoC.Config().NumCores, dpu.FreqHz, compiled.SpanDefs())
	before, start := ctx.Usage(), time.Now()
	ctx.Prof = prof
	rel, err := compiled.Execute(ctx)
	ctx.Prof = nil
	if err != nil {
		return nil, nil, err
	}
	prof.Finalize(ctx.Usage().Sub(before).Totals(time.Since(start), 0))
	return rel, prof, nil
}

// runNodes binds a plan tree to every node — the one place a plan becomes
// per-node, because compilation reads the shard's own statistics (build
// sides, partition schemes) and is part of each node's bill — then compiles
// and executes the copies concurrently, each on its own node context (its
// scheduler's worker pool in ModeDPU). The first failing node cancels the
// shared query context, stopping the others at their next tile or work-unit
// boundary.
//
// When prunable (union-semantics fragments only), the coordinator first
// consults each shard's zone summary: a fragment the summary proves empty is
// never compiled, admitted or executed — its node contributes a zero-row
// relation with the fragment's schema and burns no cycles, DMS traffic or
// energy.
func (q *query) runNodes(tree plan.Node, label string, only0, prunable bool) ([]*ops.Relation, error) {
	n := q.nodes()
	count := n
	if only0 {
		count = 1
	}
	trees := make([]plan.Node, count)
	leaves := make([]map[plan.Node]*ops.Relation, count)
	for i := range trees {
		var err error
		if trees[i], leaves[i], err = q.bind(tree, i); err != nil {
			return nil, err
		}
	}
	res := make([]*ops.Relation, n)
	errs := make([]error, count)
	if prunable && !q.noPrune {
		pruned := 0
		for i := 0; i < count; i++ {
			if qcomp.ShardZonePruned(trees[i]) {
				res[i] = emptyRelation(trees[i].Schema())
				pruned++
			}
		}
		if pruned > 0 {
			q.shardsPruned += pruned
			q.reg.Counter("rapid_shards_pruned_total").Add(int64(pruned))
			q.step("shard zones pruned %d/%d %s fragments", pruned, count, label)
		}
	}
	var profs []*obs.Profile
	if q.traceOn {
		profs = make([]*obs.Profile, n)
	}
	var wg sync.WaitGroup
	for i := 0; i < count; i++ {
		if res[i] != nil { // pruned
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			compiled, err := qcomp.CompileWithInputs(trees[i], leaves[i])
			if err == nil {
				var prof *obs.Profile
				if res[i], prof, err = q.runFragment(q.nctx[i], compiled); prof != nil {
					profs[i] = prof
				}
			}
			if err != nil {
				errs[i] = err
				q.cancel()
			}
		}(i)
	}
	wg.Wait()
	if err := q.pickError(errs); err != nil {
		return nil, err
	}
	if q.traceOn {
		q.trace = append(q.trace, obs.DistStep{Label: label, NodeProfiles: profs})
	}
	if q.analyze {
		rows := make([]int64, count)
		for i := 0; i < count; i++ {
			rows[i] = int64(res[i].Rows())
		}
		q.step("fragment %s rows/node=%v", label, rows)
	}
	return res, nil
}

// pickError prefers a root-cause error over the cancellations it fanned
// out: the caller's own cancellation wins, then any non-context node error,
// then the first context error.
func (q *query) pickError(errs []error) error {
	var anyErr error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if anyErr == nil {
			anyErr = e
		}
		if !errors.Is(e, context.Canceled) && !errors.Is(e, context.DeadlineExceeded) {
			return e
		}
	}
	if anyErr != nil {
		if err := q.outer.Err(); err != nil {
			return err
		}
	}
	return anyErr
}

// emptyRelation builds a zero-row relation with the given schema — the
// stand-in result of a shard-pruned fragment, keeping column names, types
// and dictionaries so downstream merges see the same shape as an executed
// fragment that matched nothing.
func emptyRelation(fields []plan.Field) *ops.Relation {
	cols := make([]ops.Col, len(fields))
	data := make([]coltypes.Data, len(fields))
	for i, f := range fields {
		cols[i] = ops.Col{Name: f.Name, Type: f.Type, Dict: f.Dict}
		data[i] = coltypes.Of([]int64{})
	}
	return ops.MustRelation(cols, data)
}

func opName(n plan.Node) string {
	s := n.String()
	if i := strings.IndexAny(s, "(["); i > 0 {
		return s[:i]
	}
	return s
}
