// Package qef is RAPID's query execution framework (paper §5.1): push-based
// operator execution, an actor model for parallelism across the 32 dpCores,
// the relation accessor hiding the DMS, and vectorized (multiple-rows-at-a-
// time) processing.
//
// The same operator code runs in two modes. In ModeDPU every primitive
// charges dpCore cycles and every data movement goes through the DMS model;
// the simulated elapsed time of a task is max(compute, transfer) per the
// double-buffering overlap the hardware provides. In ModeX86 accounting is
// off and the code simply runs as fast as Go allows — the configuration
// behind the paper's "software-only performance of RAPID" comparison
// (Fig 16).
package qef

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rapid/internal/coltypes"
	"rapid/internal/dms"
	"rapid/internal/dpu"
	"rapid/internal/mem"
	"rapid/internal/obs"
	"rapid/internal/storage"
)

// Mode selects the execution configuration.
type Mode int

const (
	// ModeDPU simulates execution on the RAPID DPU with full cycle and
	// transfer accounting.
	ModeDPU Mode = iota
	// ModeX86 runs the identical engine natively without accounting.
	ModeX86
)

func (m Mode) String() string {
	if m == ModeDPU {
		return "dpu"
	}
	return "x86"
}

// Executor runs work-unit batches on behalf of a Context. A nil executor
// means the context owns its parallelism outright (one goroutine per virtual
// core, the pre-scheduler behavior); a non-nil executor — the shared-SoC
// scheduler of internal/sched — multiplexes the units over a process-wide
// worker pool so concurrent queries share one machine's worth of cores.
// Implementations must preserve RunParallel's contract: unit i is pinned to
// virtual core i mod Workers(), units of one virtual core execute in
// ascending index order, and the deterministic first-error semantics hold.
type Executor interface {
	RunUnits(c *Context, units []WorkUnit) error
}

// Context is the execution environment shared by a query: the SoC, the DMS
// and the simulated-time accumulators — exactly the state a query bills.
// Usage is the one place those counters are read out.
type Context struct {
	Mode Mode
	SoC  *dpu.SoC
	// DMS is the orchestrator's engine, for operations issued between
	// batches (the hardware-partitioning hash pass). Work units use their
	// core's own, TaskCtx.DMS.
	DMS *dms.Engine

	// Prof, when non-nil, receives per-operator attribution of every
	// cycle and DMS transfer executed through this context.
	Prof *obs.Profile
	// Metrics, when non-nil, receives engine-wide counters (shared across
	// queries; typically the owning Database's registry).
	Metrics *obs.Registry

	// Exec, when non-nil, runs all work-unit batches (RunParallel and
	// RunSerial) on a shared scheduler instead of context-owned goroutines.
	Exec Executor

	// Slab leases the operator-lifetime buffers (partition buffers, sink
	// staging, match lists — see mem.Slab for the rules). Set beside Exec, from
	// the scheduler that owns it; nil in a context with no scheduler, which
	// leases from the heap through the same calls.
	Slab *mem.Slab

	// held are the buffers leased through Lease, returned by Release.
	heldMu sync.Mutex
	held   [][]int64

	// NoPrune disables zone-map scan pruning for this query (the metamorphic
	// test lanes compare pruned vs unpruned runs; EXPLAIN-level debugging uses
	// it too). Set once before execution.
	NoPrune bool

	// tilesPruned counts storage chunks skipped by zone-map pruning across
	// the whole query; atomic because distributed fragments may share-report
	// through wrapper goroutines.
	tilesPruned atomic.Int64

	// goCtx carries the query's cancellation signal (nil: never canceled)
	// and deadline its deadline (zero: none), both set by SetGoContext.
	goCtx    context.Context
	deadline time.Time

	workers int

	// activeSpan is the operator span that work units started from this
	// context attribute to. It is written only by the orchestrator goroutine
	// strictly between RunParallel/RunSerial calls (the goroutine spawn and
	// wg.Wait establish the happens-before edges), so no lock is needed.
	activeSpan *obs.OpSpan

	// cores holds one task context per virtual core, built with the context
	// and kept for its life — the host-side analogue of each dpCore owning
	// its DMEM for the whole query. Nothing here is locked: a core's units
	// run in index order on one strand, so every entry has one user at a
	// time, and its ledger's float sums are taken in unit order — the bill is
	// the same on every run, at any worker count.
	cores []TaskCtx
}

// NewContext builds an execution context. In ModeDPU the SoC is the paper's
// 32-core DPU; in ModeX86 the worker count follows GOMAXPROCS.
func NewContext(mode Mode) *Context {
	return NewContextWith(mode, dpu.DefaultConfig())
}

// NewContextWith builds a context with a custom DPU configuration.
func NewContextWith(mode Mode, cfg dpu.Config) *Context {
	soc := dpu.MustNew(cfg)
	ctx := &Context{
		Mode:  mode,
		SoC:   soc,
		DMS:   dms.NewEngine(dms.DefaultModel()),
		cores: make([]TaskCtx, cfg.NumCores),
	}
	for w := range ctx.cores {
		tc := &ctx.cores[w]
		*tc = TaskCtx{Ctx: ctx, CoreID: w, DMEM: soc.Core(w).DMEM(), dms: *ctx.DMS} // same model, its own empty ledger
		tc.DMS = &tc.dms
		if mode == ModeDPU {
			tc.Core = soc.Core(w)
		}
	}
	if mode == ModeDPU {
		ctx.workers = cfg.NumCores
	} else {
		ctx.workers = runtime.GOMAXPROCS(0)
		if ctx.workers > cfg.NumCores {
			ctx.workers = cfg.NumCores
		}
	}
	return ctx
}

// Workers returns the number of parallel workers (virtual dpCores in use).
func (c *Context) Workers() int { return c.workers }

// QueryContext derives the cancelable context one query's lifecycle runs
// under. A parent deadline is compared with the clock here, on entry: a
// deadline that has already passed yields a context that is done with
// context.DeadlineExceeded before the first check, whether or not the
// parent's timer goroutine has fired yet (on a loaded box it can lag the
// deadline by milliseconds, long enough for a small query to finish).
func QueryContext(parent context.Context) (context.Context, context.CancelFunc) {
	if d, ok := parent.Deadline(); ok {
		return context.WithDeadline(parent, d)
	}
	return context.WithCancel(parent)
}

// SetGoContext installs the query's cancellation context. Must be called
// before execution starts; tile loops and work-unit dispatch observe it.
func (c *Context) SetGoContext(ctx context.Context) {
	c.goCtx = ctx
	c.deadline, _ = ctx.Deadline()
}

// Err returns the query's cancellation status: nil while the query may keep
// running, or the context error (context.Canceled, context.DeadlineExceeded)
// once it must stop. Checked at tile-loop boundaries and before every work
// unit, so cancellation latency is bounded by one tile.
func (c *Context) Err() error {
	if c.goCtx == nil {
		return nil
	}
	return c.goCtx.Err()
}

// Reset clears all accounting for a fresh measurement.
func (c *Context) Reset() {
	c.SoC.Reset()
	c.DMS.ResetTotals()
	for w := range c.cores {
		tc := &c.cores[w]
		tc.dms, tc.sim, tc.busRead, tc.busWrite, tc.dmemHigh = *c.DMS, 0, 0, 0, 0
	}
	c.tilesPruned.Store(0)
}

// AddTilesPruned accumulates zone-pruned chunk counts for the query.
func (c *Context) AddTilesPruned(n int64) { c.tilesPruned.Add(n) }

// ActiveSpan returns the operator span subsequently started work units
// attribute to (nil when profiling is off). Task sources use it to record
// orchestrator-side per-scan accounting such as tile totals.
func (c *Context) ActiveSpan() *obs.OpSpan { return c.activeSpan }

// SimElapsed returns the simulated elapsed time of everything executed so
// far (see Usage.SimElapsed).
func (c *Context) SimElapsed() float64 { return c.Usage().SimElapsed() }

// SetActiveSpan installs the operator span that subsequently started work
// units attribute to, returning the previous one so callers can restore it.
// Must only be called by the orchestrator goroutine between parallel phases.
func (c *Context) SetActiveSpan(s *obs.OpSpan) *obs.OpSpan {
	prev := c.activeSpan
	c.activeSpan = s
	return prev
}

// AccountSpanTransfer attributes a DMS operation issued by the orchestrator
// itself (outside any work unit, e.g. the hardware-partitioning hash pass)
// to the active span. It does not bill the DDR bus lanes: orchestrator-side
// DMS time is modeled inside the operation's own timing, not as bus
// occupancy, matching the pre-profiling accounting.
func (c *Context) AccountSpanTransfer(t dms.Timing) {
	c.activeSpan.AddTransfer(0, t.Write, t.Bytes, t.Seconds)
}

// Lease leases an UN-ZEROED buffer from the slab for the rest of the query —
// the chunks of the relations its operators pass on (see ops.Relation), the
// fourth lifetime beside tile, work unit and operator. It goes back to the
// slab when the query calls Release. Safe for concurrent use by work units.
func (c *Context) Lease(words int) []int64 {
	buf := c.Slab.Lease(words)
	if c.Slab != nil {
		c.heldMu.Lock()
		c.held = append(c.held, buf)
		c.heldMu.Unlock()
	}
	return buf
}

// Release returns every buffer leased through Lease to the slab. The query
// calls it once it is done with its relations — after the result has been
// Flattened, or the exchange has copied them onto the wire — and after every
// batch has returned; nothing leased may be read afterwards.
func (c *Context) Release() {
	c.heldMu.Lock()
	held := c.held
	c.held = nil
	c.heldMu.Unlock()
	for _, buf := range held {
		c.Slab.Return(buf)
	}
}

// CountMetric bumps a named engine counter if a registry is attached.
func (c *Context) CountMetric(name string, delta int64) {
	c.Metrics.Counter(name).Add(delta)
}

// TaskCtx returns virtual core w's execution state. It belongs to the
// context: the run loops, and a scheduler running the context's units, hand
// it to every unit of core w.
func (c *Context) TaskCtx(w int) *TaskCtx { return &c.cores[w] }

// TaskCtx is the per-core execution state handed to operators: the core
// (nil in ModeX86), its DMEM, the transfer-time accumulator that the
// relation accessor fills, and the core's ledger.
type TaskCtx struct {
	Ctx    *Context
	CoreID int
	Core   *dpu.Core // nil in ModeX86
	DMEM   *mem.DMEM
	DMS    *dms.Engine // this core's DMS engine and ledger

	// Seq is the position of the running work unit in its task source's
	// scan order, set by the source (ops.TableScan / ops.RelationScan) at the
	// start of every unit. Sinks that materialize rows per core record it
	// with each run of rows and emit the runs in Seq order, so result row
	// order is scan order at any worker count. Contract: units of one source
	// carry distinct, ascending Seq values in the order their rows must
	// appear; a unit keeps one Seq for its whole run.
	Seq int

	// Zone, while a table scan's unit runs, returns the zone map of scanned
	// column c of the unit's chunk, ok false where none bounds the chunk's
	// visible values (ops.TileZone). RunUnit clears it: it is nil in any
	// other unit.
	Zone func(c int) (storage.Zone, bool)

	// ends are the operators registered for the running unit's end, each with
	// the span that was current when it registered (AtUnitEnd).
	ends []unitEnd

	transferSec float64

	// Interval profiler state: every cycle (ModeDPU) or nanosecond
	// (ModeX86) between a unit's start and end is attributed to exactly one
	// operator span — the one active since the last SwitchSpan. span is nil
	// when profiling is off.
	span   *obs.OpSpan
	markCy int64
	markT  time.Time

	// Pool serves all tile- and unit-lifetime scratch buffers (the DMEM
	// temporaries on the DPU); mem.TilePool says what a take holds and how
	// long it lives. The context's own run loops create it once and keep it;
	// a scheduler sets it to its worker's pool for one unit and clears it.
	Pool *mem.TilePool

	// tiles recycles the Tile structs operators emit downstream, reset
	// together with the pool at tile boundaries.
	tiles   []*Tile
	tileOff int

	// The core's ledger, read out by Context.Usage.
	dms dms.Engine // DMS points here
	sim float64    // simulated busy seconds: Σ max(compute, transfer) per unit (ModeDPU)
	// This core's share of the DDR bus occupancy: the DMS serializes all
	// cores' DRAM transfers on the memory interface, one lane per direction.
	busRead, busWrite float64
	dmemHigh          int // largest DMEM high-water mark at the end of a unit (ModeDPU)
}

// TileScratch returns a recycled Tile over the given columns, valid until
// the next ResetScratch. Operators use it to emit derived tiles downstream
// without allocating.
func (tc *TaskCtx) TileScratch(cols []coltypes.Data, n int) *Tile {
	if tc.tileOff == len(tc.tiles) {
		tc.tiles = append(tc.tiles, new(Tile))
	}
	t := tc.tiles[tc.tileOff]
	tc.tileOff++
	*t = Tile{Cols: cols, N: n}
	return t
}

// ResetScratch recycles all tile-lifetime scratch buffers (everything taken
// from the pool since its innermost Mark) and the recycled tiles. Called by
// task sources before emitting each tile.
func (tc *TaskCtx) ResetScratch() {
	tc.Pool.ResetTile()
	tc.tileOff = 0
}

// beginSpanClock starts the unit's attribution interval.
func (tc *TaskCtx) beginSpanClock() {
	if tc.Core != nil {
		tc.markCy = int64(tc.Core.Cycles())
	} else {
		tc.markT = time.Now()
	}
}

// flushSpan attributes the cycles (or wall time) elapsed since the last
// mark to the current span and restarts the interval.
func (tc *TaskCtx) flushSpan() {
	if tc.Core != nil {
		now := int64(tc.Core.Cycles())
		tc.span.AddCycles(tc.CoreID, now-tc.markCy)
		tc.markCy = now
	} else {
		now := time.Now()
		tc.span.AddWallNs(tc.CoreID, now.Sub(tc.markT).Nanoseconds())
		tc.markT = now
	}
}

// unitEnd is one AtUnitEnd registration.
type unitEnd struct {
	op   UnitEnder
	span *obs.OpSpan
}

// AtUnitEnd has op's EndUnit run once the running unit's source has produced
// its last tile, under the span current now. An operator registers on its
// first tile of a unit; a unit that fails runs none of its registrations.
func (tc *TaskCtx) AtUnitEnd(op UnitEnder) {
	tc.ends = append(tc.ends, unitEnd{op: op, span: tc.span})
}

// EndUnit runs the unit's AtUnitEnd registrations in order, each under its
// own span, and forgets them. A table scan (ops.TableScan) calls it after a
// unit's last tile.
func (tc *TaskCtx) EndUnit() error {
	defer func() { tc.ends = tc.ends[:0] }()
	for _, e := range tc.ends {
		prev := tc.SwitchSpan(e.span)
		err := e.op.EndUnit(tc)
		tc.SwitchSpan(prev)
		if err != nil {
			return err
		}
	}
	return nil
}

// SwitchSpan flushes the interval accumulated so far into the outgoing
// span and makes next the current span, returning the previous one. Called
// by span wrappers at operator boundaries; no-op when profiling is off.
func (tc *TaskCtx) SwitchSpan(next *obs.OpSpan) *obs.OpSpan {
	prev := tc.span
	if tc.Ctx.Prof == nil {
		return prev
	}
	tc.flushSpan()
	tc.span = next
	return prev
}

// SpanTileIn counts one tile of rows entering the current span (used by
// task sources, which have no upstream span wrapper to tick them).
func (tc *TaskCtx) SpanTileIn(rows int) {
	tc.span.TickIn(tc.CoreID, int64(rows))
}

// SpanTileChunk counts one storage chunk (zone-map tile) actually scanned
// under the current span. Together with the orchestrator-side total/pruned
// counts, the profile invariant pruned+scanned == total holds per scan.
func (tc *TaskCtx) SpanTileChunk() {
	tc.span.TickTileScanned(tc.CoreID)
}

// AddTransfer accumulates DMS transfer time for overlap accounting, and
// bills the shared DDR bus.
func (tc *TaskCtx) AddTransfer(t dms.Timing) {
	tc.transferSec += t.Seconds
	tc.span.AddTransfer(tc.CoreID, t.Write, t.Bytes, t.Seconds)
	if t.Write {
		tc.busWrite += t.Seconds
	} else {
		tc.busRead += t.Seconds
	}
}

// WorkUnit is one schedulable piece of a task: typically "process this
// chunk" or "join this partition pair". It runs pinned to a core.
type WorkUnit func(tc *TaskCtx) error

// RunParallel executes the work units on the core pool: worker w owns core
// w exclusively (the actor model — no shared mutable state between cores;
// they meet only at work-unit boundaries). Units are assigned round-robin,
// matching the compiler's static task scheduling: simulated load balance
// must not depend on how fast the Go host happens to run each goroutine.
// Per unit, the simulated elapsed time is max(compute, transfer): double
// buffering overlaps the two.
//
// Error handling is deterministic: a failure at unit index f cancels all
// units with a higher index that have not yet started (on every worker,
// not just the failing one), and the error returned is always the one from
// the lowest-indexed unit that failed. Units below the lowest failing
// index always run, so replaying a failing query reproduces both the error
// and the set of executed units.
func (c *Context) RunParallel(units []WorkUnit) error {
	if len(units) == 0 {
		return nil
	}
	if c.Exec != nil {
		return c.Exec.RunUnits(c, units)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(units))
	// Index of the lowest failing unit observed so far; len(units) means
	// no failure. Workers skip any unit above the watermark.
	var firstFailed atomic.Int64
	firstFailed.Store(int64(len(units)))
	for w := 0; w < c.workers; w++ {
		if w >= len(units) {
			break
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tc := c.ownedTaskCtx(w)
			for i := w; i < len(units); i += c.workers {
				if int64(i) > firstFailed.Load() {
					return
				}
				if err := c.RunUnit(tc, units[i]); err != nil {
					errs[i] = err
					for {
						cur := firstFailed.Load()
						if int64(i) >= cur || firstFailed.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if f := firstFailed.Load(); f < int64(len(units)) {
		return errs[f]
	}
	return nil
}

// RunUnit executes one work unit on its task context with full per-unit
// accounting (scratch reset, span clock, cycle/transfer overlap). It is the
// single execution path for both the context-owned run loops and the shared
// scheduler's workers. A canceled query fails the unit before it starts,
// and so does a deadline that the clock has passed, as in QueryContext: the
// context's timer can lag it long enough for a query to finish past it.
func (c *Context) RunUnit(tc *TaskCtx, u WorkUnit) error {
	err := c.Err()
	if err == nil && !c.deadline.IsZero() && !time.Now().Before(c.deadline) {
		err = context.DeadlineExceeded
	}
	if err != nil {
		return fmt.Errorf("qef: work unit on core %d: %w", tc.CoreID, err)
	}
	c.CountMetric("qef_work_units_total", 1)
	tc.transferSec = 0
	tc.Zone, tc.ends = nil, tc.ends[:0]
	tc.DMEM.Reset()
	tc.Pool.Reset()
	tc.tileOff = 0
	growsBefore := tc.Pool.Grows()
	profiling := c.Prof != nil
	if profiling {
		tc.span = c.activeSpan
		tc.beginSpanClock()
	}
	var beforeCycles dpu.Cycles
	if tc.Core != nil {
		beforeCycles = tc.Core.Cycles()
	}
	err = u(tc)
	if profiling {
		tc.flushSpan()
		tc.span = nil
	}
	if d := tc.Pool.Grows() - growsBefore; d > 0 {
		c.CountMetric("qef_pool_grows_total", d)
	}
	if tc.Core != nil {
		// Double buffering overlaps a unit's compute with its transfers.
		compute := (tc.Core.Cycles() - beforeCycles).Seconds()
		tc.sim += max(compute, tc.transferSec)
		tc.dmemHigh = max(tc.dmemHigh, tc.DMEM.HighWater())
	}
	if err != nil {
		return fmt.Errorf("qef: work unit on core %d: %w", tc.CoreID, err)
	}
	return nil
}

// RunSerial executes one work unit on core 0 (coordinator work such as
// final merges).
func (c *Context) RunSerial(u WorkUnit) error {
	if c.Exec != nil {
		return c.Exec.RunUnits(c, []WorkUnit{u})
	}
	return c.RunUnit(c.ownedTaskCtx(0), u)
}

// ownedTaskCtx returns core w's task context for the context's own run
// loops, giving it a tile pool on first use.
func (c *Context) ownedTaskCtx(w int) *TaskCtx {
	tc := &c.cores[w]
	if tc.Pool == nil {
		tc.Pool = mem.NewTilePool()
	}
	return tc
}
