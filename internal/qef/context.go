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

	"rapid/internal/bits"
	"rapid/internal/coltypes"
	"rapid/internal/dms"
	"rapid/internal/dpu"
	"rapid/internal/mem"
	"rapid/internal/obs"
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

	// goCtx carries the query's cancellation signal; nil means "never
	// canceled". Set once before execution via SetGoContext.
	goCtx context.Context

	workers int

	// pools holds one TilePool per core, created lazily by the first task
	// context on that core and reused for the lifetime of the context —
	// the host-side analogue of each dpCore owning its DMEM. Worker w only
	// touches pools[w], and the goroutine spawn / wg.Wait pairs of the run
	// loops order successive uses, so no lock is needed.
	pools []*mem.TilePool

	// activeSpan is the operator span that work units started from this
	// context attribute to. It is written only by the orchestrator goroutine
	// strictly between RunParallel/RunSerial calls (the goroutine spawn and
	// wg.Wait establish the happens-before edges), so no lock is needed.
	activeSpan *obs.OpSpan

	// bills holds what each virtual core's units have billed. Nothing here
	// is locked: a core's units run in index order on one strand, so every
	// entry has one writer at a time, and its float sums are taken in unit
	// order — the bill is the same on every run, at any worker count.
	bills []coreBill
}

// coreBill is the ledger of one virtual core.
type coreBill struct {
	sim float64 // simulated busy seconds: Σ max(compute, transfer) per unit (ModeDPU)
	// This core's share of the DDR bus occupancy: the DMS serializes all
	// cores' DRAM transfers on the memory interface, one lane per direction.
	busRead, busWrite float64
	dmemHigh          int // largest DMEM high-water mark at the end of a unit (ModeDPU)
	dms               dms.Engine
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
		bills: make([]coreBill, cfg.NumCores),
		pools: make([]*mem.TilePool, cfg.NumCores),
	}
	for i := range ctx.bills {
		ctx.bills[i].dms = *ctx.DMS // same model, its own empty ledger
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
func (c *Context) SetGoContext(ctx context.Context) { c.goCtx = ctx }

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
	for i := range c.bills {
		c.bills[i] = coreBill{dms: *c.DMS}
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

// TaskCtx is the per-core execution state handed to operators: the core
// (nil in ModeX86), its DMEM, and the transfer-time accumulator that the
// relation accessor fills.
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

	transferSec float64

	// Interval profiler state: every cycle (ModeDPU) or nanosecond
	// (ModeX86) between a unit's start and end is attributed to exactly one
	// operator span — the one active since the last SwitchSpan. span is nil
	// when profiling is off.
	span   *obs.OpSpan
	markCy int64
	markT  time.Time

	// pool serves all tile- and unit-lifetime scratch buffers (the DMEM
	// temporaries on the DPU): expression accumulators, bit-vectors, RID
	// lists, gathered column buffers and header slices. Reset at tile
	// boundaries by the task source; buffers must not be retained across
	// tiles. Bound before the first unit: by the context's own run loops, or
	// by the shared scheduler via BindPool.
	pool *mem.TilePool

	// tiles recycles the Tile structs operators emit downstream, reset
	// together with the pool at tile boundaries.
	tiles   []*Tile
	tileOff int
}

// The scratch takes below are served by the task's pool. Data buffers —
// I64Scratch, U32Scratch, RIDScratch and DataScratch — are NOT zeroed: they
// hold whatever an earlier take wrote (a poison pattern in race builds), so
// the taker writes every element it later reads, and a site that reads first
// clears what it took and says why. Headers and bit-vectors come back
// cleared. All are valid until the next ResetScratch.

// I64Scratch returns an un-zeroed n-element scratch buffer.
func (tc *TaskCtx) I64Scratch(n int) []int64 {
	return tc.pool.I64(n)
}

// U32Scratch returns an un-zeroed n-element uint32 scratch buffer (hash
// values, group ids).
func (tc *TaskCtx) U32Scratch(n int) []uint32 {
	return tc.pool.U32(n)
}

// RIDScratch returns an empty RID buffer with capacity n, for append-style
// fills (bit-vector → RID conversion).
func (tc *TaskCtx) RIDScratch(n int) []uint32 {
	return tc.pool.U32(n)[:0]
}

// BVScratch returns a cleared n-bit vector.
func (tc *TaskCtx) BVScratch(n int) *bits.Vector {
	return tc.pool.BV(n)
}

// DataScratch returns an un-zeroed column buffer of the given width and
// length.
func (tc *TaskCtx) DataScratch(w coltypes.Width, n int) coltypes.Data {
	return tc.pool.Data(w, n)
}

// ColScratch returns a zeroed []coltypes.Data header slice of length n.
func (tc *TaskCtx) ColScratch(n int) []coltypes.Data {
	return tc.pool.Headers(n)
}

// RowScratch returns a zeroed [][]int64 header slice of length n.
func (tc *TaskCtx) RowScratch(n int) [][]int64 {
	return tc.pool.RowHeaders(n)
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

// MarkScratch opens a unit-lifetime scratch scope: buffers taken after it
// survive ResetScratch and are freed by the matching ReleaseScratch. Task
// sources bracket their across-tile buffers (e.g. the accessor's tile view
// headers) with it.
func (tc *TaskCtx) MarkScratch() { tc.pool.Mark() }

// ReleaseScratch closes the innermost MarkScratch scope.
func (tc *TaskCtx) ReleaseScratch() { tc.pool.Release() }

// ResetScratch recycles all tile-lifetime scratch buffers (everything taken
// since the innermost MarkScratch). Called by task sources before emitting
// each tile.
func (tc *TaskCtx) ResetScratch() {
	tc.pool.ResetTile()
	tc.tileOff = 0
}

// Pool exposes the task's buffer pool for the DMEM-conformance tests.
func (tc *TaskCtx) Pool() *mem.TilePool { return tc.pool }

// BindPool attaches the scratch pool serving this task context. The shared
// scheduler calls it before every unit dispatch: the pool belongs to the
// scheduler worker (not the virtual core), so pooled buffers survive across
// queries while each pool still has exactly one goroutine using it at a
// time. Scratch never outlives a unit, so rebinding between units is safe.
func (tc *TaskCtx) BindPool(p *mem.TilePool) { tc.pool = p }

// Canceled returns the owning query's cancellation status (see Context.Err).
// Task sources call it once per tile.
func (tc *TaskCtx) Canceled() error { return tc.Ctx.Err() }

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
	if b := &tc.Ctx.bills[tc.CoreID]; t.Write {
		b.busWrite += t.Seconds
	} else {
		b.busRead += t.Seconds
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
			tc := c.newTaskCtx(w)
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

// NewTaskCtx builds the execution state for virtual core w without binding a
// scratch pool: the shared scheduler creates one per (query, virtual core)
// and attaches a worker-owned pool via BindPool at each dispatch.
func (c *Context) NewTaskCtx(w int) *TaskCtx {
	tc := &TaskCtx{Ctx: c, CoreID: w, DMS: &c.bills[w].dms}
	if c.Mode == ModeDPU {
		tc.Core = c.SoC.Core(w)
		tc.DMEM = tc.Core.DMEM()
	} else {
		tc.DMEM = mem.NewDMEMWithCapacity(c.SoC.Config().DMEMBytes)
	}
	return tc
}

func (c *Context) newTaskCtx(w int) *TaskCtx {
	tc := c.NewTaskCtx(w)
	if c.pools[w] == nil {
		c.pools[w] = mem.NewTilePool()
	}
	tc.pool = c.pools[w]
	return tc
}

// RunUnit executes one work unit on its task context with full per-unit
// accounting (scratch reset, span clock, cycle/transfer overlap). It is the
// single execution path for both the context-owned run loops and the shared
// scheduler's workers. A canceled query fails the unit before it starts.
func (c *Context) RunUnit(tc *TaskCtx, u WorkUnit) error {
	if err := c.Err(); err != nil {
		return fmt.Errorf("qef: work unit on core %d: %w", tc.CoreID, err)
	}
	c.CountMetric("qef_work_units_total", 1)
	tc.transferSec = 0
	tc.DMEM.Reset()
	tc.pool.Reset()
	tc.tileOff = 0
	growsBefore := tc.pool.Grows()
	profiling := c.Prof != nil
	if profiling {
		tc.span = c.activeSpan
		tc.beginSpanClock()
	}
	var beforeCycles dpu.Cycles
	if tc.Core != nil {
		beforeCycles = tc.Core.Cycles()
	}
	err := u(tc)
	if profiling {
		tc.flushSpan()
		tc.span = nil
	}
	if d := tc.pool.Grows() - growsBefore; d > 0 {
		c.CountMetric("qef_pool_grows_total", d)
	}
	if tc.Core != nil {
		// Double buffering overlaps a unit's compute with its transfers.
		compute := (tc.Core.Cycles() - beforeCycles).Seconds()
		b := &c.bills[tc.CoreID]
		b.sim += max(compute, tc.transferSec)
		b.dmemHigh = max(b.dmemHigh, tc.DMEM.HighWater())
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
	tc := c.newTaskCtx(0)
	return c.RunUnit(tc, u)
}
