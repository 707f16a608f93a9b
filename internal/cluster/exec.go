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
	"rapid/internal/qcomp"
	"rapid/internal/qef"
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

// Result is the outcome of one distributed query. The embedded Bill is
// the whole tray's: cycles, DMS traffic and energy over every node and the
// coordinator, the interconnect priced in Energy.NetFJ, the idle floor of
// all N uncore domains over the makespan, and the longest admission wait.
type Result struct {
	Rel   *ops.Relation
	Nodes int
	hostdb.Bill

	// QueryID is the fleet-wide identifier the query was journaled under
	// (shared with the host database's active-query table).
	QueryID uint64

	NodeSimSeconds  float64 // max over nodes; SimSeconds adds NetSeconds and CoordSimSeconds
	CoordSimSeconds float64
	NetSeconds      float64

	NetRows, NetBytes, NetTiles int64
	Exchanges                   []*obs.ExchangeSpan
	PerNode                     []NodeStats

	// TotalCycles is the bill's Cycles under the name benchmark/ reads; it
	// goes when that reader moves to Cycles (ROADMAP 10(a)).
	TotalCycles int64

	// ShardsPruned counts node fragments the coordinator skipped entirely
	// because the shard's zone summary proved the fragment empty.
	ShardsPruned int

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
// query on every node's scheduler and then the coordinator on the host's
// (all-or-nothing, in that order — ordered acquisition keeps concurrent tray
// queries deadlock-free), executes maximal node-local fragments in parallel
// with exchanges in between, and merges at the coordinator. Canceling goCtx
// (or any node failing) cancels every node within one exchange tile /
// scheduler work unit.
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
// even when per-shard statistics differ; Execute re-targets the plan, by
// table name, at the shard set it resolves, which is a later load than the
// bind's when a table reloaded in between.
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
	res.Stamp(&rec)
	rec.NetBytes = res.NetBytes
	return rec
}

// execute runs a coordinator-bound plan across the tray and bills it. The
// finished per-execution state is returned beside the result so in-package
// tests can reconcile the billing with the contexts it was read from.
func (t *Tray) execute(goCtx context.Context, bound plan.Node, opts QueryOptions, h obs.ActiveHandle) (*Result, *query, error) {
	n := t.NumNodes()
	// Live columns run after lift, which reads a lifted semi join's key
	// among the columns of the joins it climbs.
	tree, shards, err := t.resolve(bound)
	if err == nil {
		tree, err = lift(tree)
	}
	if err == nil {
		tree, err = plan.Live(tree)
	}
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

	// One session per node and one for the coordinator on the host
	// database's scheduler, opened in that fixed order: ordered acquisition
	// keeps concurrent tray queries deadlock-free. Each scheduler enforces
	// its own concurrency and queue limits; one overloaded scheduler sheds
	// the whole query (ErrOverloaded) after what was admitted is released.
	// Node relations are read only by the exchanges that copy them onto the
	// wire, so their chunks go back once the query is done.
	h.SetPhase("queued")
	sessions := make([]*hostdb.Session, 0, n+1)
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
	}()
	for i := 0; i <= n; i++ {
		sc := t.host.Scheduler()
		if i < n {
			sc = t.nodes[i].sched
		}
		s, serr := hostdb.OpenSession(qctx, sc, opts.Mode, t.reg, opts.DisablePruning)
		if serr != nil {
			return nil, nil, serr
		}
		sessions = append(sessions, s)
		q.nctx = append(q.nctx, s.Ctx)
	}
	q.nctx, q.coord = q.nctx[:n], q.nctx[n]
	h.SetPhase("executing")

	rel, err := q.exec(tree)
	if err != nil {
		if cerr := goCtx.Err(); cerr != nil {
			return nil, nil, cerr
		}
		return nil, nil, err
	}

	res := &Result{
		Rel: rel.Flatten(), Nodes: n,

		Exchanges:    q.exchanges,
		Explain:      plan.Format(tree),
		ShardsPruned: q.shardsPruned,
	}
	for _, ex := range q.exchanges {
		res.NetSeconds += ex.Seconds
		res.NetRows += ex.MovedRows
		res.NetBytes += ex.MovedBytes
		res.NetTiles += ex.Tiles
	}
	// The bill and queue wait run over every node session and then the
	// coordinator's; the per-node breakdown and makespan over the nodes only.
	usages := make([]qef.Usage, len(sessions))
	var wait time.Duration
	for i, s := range sessions {
		u := s.Ctx.Usage()
		usages[i], wait = u, max(wait, s.QueueWait())
		if sim := u.SimElapsed(); i == n {
			res.CoordSimSeconds = sim
		} else {
			res.PerNode = append(res.PerNode, NodeStats{
				Cycles: u.Cycles(), DMSReadBytes: u.Read.Bytes, DMSWriteBytes: u.Write.Bytes, SimSeconds: sim,
			})
			res.NodeSimSeconds = max(res.NodeSimSeconds, sim)
		}
	}
	sim := res.NodeSimSeconds + res.NetSeconds + res.CoordSimSeconds
	res.Bill = hostdb.Price(t.reg, opts.Mode, n, sim, res.NetBytes, usages...)
	res.QueueWait, res.TotalCycles = wait, res.Cycles
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
