package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

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
	// DisablePruning turns off tile zone-map pruning on every node.
	// Metamorphic test lanes use it to assert pruning never changes results.
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

	// ShardsPruned is always 0: the tray prunes tiles, never whole node
	// fragments. It stays while benchmark/ reads it (ROADMAP 10(a)).
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

		Exchanges: q.exchanges,
		Explain:   plan.Format(tree),
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

// exec runs a plan tree and returns its result at the coordinator. Every
// largest subtree classify accepts runs on the nodes (distribute); what is
// left above them compiles once, over their relations, and runs as one
// coordinator fragment — the single SoC's lowering, so a Sort under a Limit
// fuses into Top-K there as it does on one SoC.
func (q *query) exec(root plan.Node) (*ops.Relation, error) {
	inputs := make(map[plan.Node]*ops.Relation)
	if err := q.distribute(root, inputs); err != nil {
		return nil, err
	}
	if rel, ok := inputs[root]; ok {
		return rel, nil
	}
	compiled, err := qcomp.CompileWithInputs(root, inputs)
	if err != nil {
		return nil, err
	}
	rel, prof, err := q.runFragment(q.coord, compiled)
	if err != nil {
		return nil, err
	}
	if prof != nil {
		q.trace = append(q.trace, obs.DistStep{Label: "coordinator " + opName(root), Coord: prof})
	}
	q.step("coordinator %s rows=%d", opName(root), rel.Rows())
	return rel, nil
}

// distribute runs every largest subtree of n that classify accepts, and
// every group-by over one, on the nodes (distributed), and records its
// coordinator-side relation in inputs.
func (q *query) distribute(n plan.Node, inputs map[plan.Node]*ops.Relation) (err error) {
	if err := q.goCtx.Err(); err != nil {
		return err
	}
	in := n
	if g, ok := n.(*plan.GroupBy); ok {
		in = g.Input
	}
	if local(in) {
		inputs[n], err = q.distributed(n, in)
		return err
	}
	for _, kid := range n.Children() {
		if err := q.distribute(kid, inputs); err != nil {
			return err
		}
	}
	return nil
}

// distributed runs n on the nodes, with the exchanges its joins need, and
// gathers its result at the coordinator; in is n, or n's input when n is a
// group-by, and classify accepts it. A replicated input would give the same
// relation on every node: it runs once, and one copy is gathered. A group-by
// whose every group is complete on one node (groupLayout: a partition column
// among the keys, or a replicated input) is final on the nodes, and only its
// groups are gathered. Otherwise it takes two phases: the nodes compute
// qcomp.PartialAggs, and the coordinator folds the gathered partials with
// qcomp.MergePartials, the single SoC's merge and finalization — distributed
// answers stay bit-identical.
func (q *query) distributed(n, in plan.Node) (*ops.Relation, error) {
	rec, err := q.localize(in)
	if err != nil {
		return nil, err
	}
	g, grouped := n.(*plan.GroupBy)
	tree, label, result, whole := rec.tree, "fragment", "result", true
	if grouped {
		_, whole = groupLayout(g, rec.layout)
		aggs := g.Aggs
		if !whole {
			aggs = qcomp.PartialAggs(g)
		}
		tree = &plan.GroupBy{Input: rec.tree, Keys: g.Keys, Aggs: aggs}
		label, result = "partial group-by", "partials"
		switch {
		case rec.repl:
			label, result = "group-by (replicated)", "result"
		case whole:
			label, result = "group-by", "groups"
		}
	}
	parts, err := q.runNodes(tree, label, rec.repl)
	if err != nil {
		return nil, err
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

// runNodes compiles a plan tree on the nodes and runs the copies.
func (q *query) runNodes(tree plan.Node, label string, only0 bool) ([]*ops.Relation, error) {
	copies, err := q.compile(tree, only0)
	if err != nil {
		return nil, err
	}
	return q.run(copies, label)
}

// compile binds a plan tree to every node — node 0 only when only0: a
// replicated fragment needs a single execution — and compiles the copies
// concurrently. It is the one place a plan becomes per-node: compilation
// reads the shard's own statistics (build sides, partition schemes, group
// table sizes), which shape each node's bill, so every copy is compiled
// against its own shard.
func (q *query) compile(tree plan.Node, only0 bool) ([]*qcomp.Compiled, error) {
	copies := make([]*qcomp.Compiled, q.nodes())
	if only0 {
		copies = copies[:1]
	}
	err := q.onNodes(len(copies), func(i int) error {
		t, inputs, err := q.bind(tree, i)
		if err == nil {
			copies[i], err = qcomp.CompileWithInputs(t, inputs)
		}
		return err
	})
	return copies, err
}

// run executes compiled node copies concurrently, copy i on node i's context
// (its scheduler's worker pool in ModeDPU), and returns their relations; the
// trace and the EXPLAIN ANALYZE report show them as one step, label.
func (q *query) run(copies []*qcomp.Compiled, label string) ([]*ops.Relation, error) {
	res := make([]*ops.Relation, len(copies))
	profs := make([]*obs.Profile, q.nodes())
	err := q.onNodes(len(copies), func(i int) (err error) {
		res[i], profs[i], err = q.runFragment(q.nctx[i], copies[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	if q.traceOn {
		q.trace = append(q.trace, obs.DistStep{Label: label, NodeProfiles: profs})
	}
	rows := make([]int64, len(res))
	for i, rel := range res {
		rows[i] = int64(rel.Rows())
	}
	q.step("fragment %s rows/node=%v", label, rows)
	return res, nil
}

// onNodes calls fn for nodes 0..count-1 concurrently. The first failing node
// cancels the shared query context, stopping the others at their next tile
// or work-unit boundary.
func (q *query) onNodes(count int, fn func(i int) error) error {
	errs := make([]error, count)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = fn(i); errs[i] != nil {
				q.cancel()
			}
		}()
	}
	wg.Wait()
	return q.pickError(errs)
}

// pickError prefers a root-cause error over the cancellations it fanned
// out: any non-context node error wins, then the caller's own context error,
// then a deadline over a cancellation. A node reads its deadline off the
// clock, so it can fail with DeadlineExceeded before the context's timer
// fires, and the other nodes stop with the Canceled its failure fans out.
func (q *query) pickError(errs []error) error {
	var ctxErr error
	for _, e := range errs {
		switch {
		case e == nil:
		case !errors.Is(e, context.Canceled) && !errors.Is(e, context.DeadlineExceeded):
			return e
		case ctxErr == nil || errors.Is(e, context.DeadlineExceeded):
			ctxErr = e
		}
	}
	if ctxErr != nil && q.outer.Err() != nil {
		return q.outer.Err()
	}
	return ctxErr
}

func opName(n plan.Node) string {
	s := n.String()
	if i := strings.IndexAny(s, "(["); i > 0 {
		return s[:i]
	}
	return s
}
