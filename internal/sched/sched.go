// Package sched is the shared-SoC concurrent query scheduler: one
// process-wide pool of virtual dpCores that multiplexes every concurrent
// query's work units over a single machine's worth of execution resources.
//
// The paper's QEF runs many queries against one fixed 32-dpCore SoC; this
// package restores that model for the reproduction, which previously built a
// private SoC per query and so had no resource sharing or contention at all.
// It provides:
//
//   - Admission control: a configurable number of concurrently-executing
//     queries, a bounded FIFO run queue with aggregate DMEM reservation
//     accounting, and fast-fail backpressure — Admit returns ErrOverloaded
//     the moment the queue is full instead of queuing unboundedly.
//   - Fair dispatch: each query's work units are split into per-virtual-core
//     strands, and scheduler workers drain strands round-robin at
//     WORK-UNIT granularity — after every unit the worker may switch to
//     another query, so a large scan cannot starve point queries.
//   - Determinism: unit i of a batch still executes on virtual core
//     i mod Workers() of its own query's context, units of one virtual core
//     run in ascending order, and the deterministic lowest-failing-unit
//     error semantics of qef.RunParallel are preserved. Simulated-time and
//     profile accounting are therefore identical to serial execution.
//   - Pool ownership: a worker borrows a mem.TilePool from the scheduler for
//     the length of one work unit, most recently returned first. Pooling
//     survives across queries (bounded by poolRetainBytes so one huge query
//     cannot pin its arenas), and only as many pools as units ever ran at
//     once are in use — k concurrent strands keep k pools warm instead of
//     ratcheting up one per worker in whatever order the workers woke. The
//     scheduler also owns the mem.Slab that the admitted queries lease their
//     operator-lifetime buffers from (Admission.Slab), bounded by
//     slabRetainBytes and dropped at Close.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rapid/internal/dpu"
	"rapid/internal/mem"
	"rapid/internal/obs"
	"rapid/internal/qef"
)

// ErrOverloaded is returned by Admit when the bounded run queue is full:
// the caller should shed the query (or retry with backoff) rather than
// expect it to be queued.
var ErrOverloaded = errors.New("sched: overloaded, admission queue full")

// ErrClosed is returned for operations on a closed scheduler.
var ErrClosed = errors.New("sched: scheduler closed")

// poolRetainBytes caps the tile-buffer arena bytes a scheduler worker keeps
// alive between work units.
const poolRetainBytes = 16 << 20

// slabRetainBytes caps the operator-lifetime buffers the scheduler's slab
// keeps between leases. Measured, not guessed: the free lists of a join_heavy
// pass plateau at 82 MB, and this is the smallest cap of the sensitivity
// table in EXPERIMENTS.md (Fig 16) at which the pass stops evicting.
const slabRetainBytes = 96 << 20

// Config tunes a scheduler instance (one per database).
type Config struct {
	// Workers is the number of shared virtual dpCores (worker goroutines).
	// Default: the paper SoC's 32 cores.
	Workers int
	// MaxConcurrent is the number of queries allowed to execute at once.
	// Default 8.
	MaxConcurrent int
	// MaxQueued bounds the admission wait queue; an Admit beyond it fails
	// fast with ErrOverloaded. Default 64.
	MaxQueued int
	// DMEMBudgetBytes is the aggregate scratchpad reservation the admitted
	// set may hold. Each query reserves Cores × 32 KiB (its virtual cores'
	// DMEMs) while running; a query whose reservation does not fit waits in
	// the queue even when a concurrency slot is free. The default is
	// MaxConcurrent full SoCs, i.e. non-binding; configure it lower to
	// serialize memory-hungry queries.
	DMEMBudgetBytes int64
	// Metrics receives the scheduler counters/gauges (sched_*). Nil means
	// no metrics.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = dpu.DefaultConfig().NumCores
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 64
	}
	if c.DMEMBudgetBytes <= 0 {
		c.DMEMBudgetBytes = int64(c.MaxConcurrent) * int64(c.Workers) * int64(dpu.DefaultConfig().DMEMBytes)
	}
	return c
}

// Request describes one query's resource demand at admission time.
type Request struct {
	// Cores is the number of virtual cores the query's context will use.
	// Zero means the full shared SoC. While admitted the query reserves
	// Cores × 32 KiB of scratchpad (its virtual cores' DMEMs).
	Cores int
}

// Scheduler multiplexes concurrent queries over one shared pool of virtual
// dpCores.
type Scheduler struct {
	cfg Config

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool

	started bool
	wg      sync.WaitGroup

	// Admission state.
	running  int
	dmemUsed int64
	waiting  []*waiter

	// Dispatch state: queries with runnable strands, served round-robin.
	active   []*query
	cursor   int
	runnable int // total runnable strands (cond-wait predicate)
	// pools not lent to a running unit, last returned on top.
	pools []*mem.TilePool
	// slab recycles the admitted queries' operator-lifetime buffers.
	slab *mem.Slab

	// Metrics (never nil; obs handles a nil registry receiver but keeping
	// concrete handles avoids name lookups on the hot path).
	admitted    *obs.Counter
	rejected    *obs.Counter
	canceled    *obs.Counter
	preempted   *obs.Counter
	unitsTotal  *obs.Counter
	queueDepth  *obs.Gauge
	activeGauge *obs.Gauge
	waitHist    *obs.Histogram
}

// waiter is one queued admission request.
type waiter struct {
	req      Request
	ready    chan struct{}
	admitted bool
	err      error
}

// query is the dispatch-side state of one admitted query.
type query struct {
	runnable []*strand
	inActive bool
}

// batch is one RunUnits call: a set of work units split into strands.
type batch struct {
	q      *query
	qc     *qef.Context
	units  []qef.WorkUnit
	stride int
	errs   []error
	// firstFailed is the lowest failing unit index seen so far (len(units)
	// when none): strands skip units above it, matching qef.RunParallel.
	firstFailed atomic.Int64
	pending     int // strands not yet finished (guarded by Scheduler.mu)
	done        chan struct{}
}

// strand is the ordered unit sequence of one virtual core within a batch:
// indices vcore, vcore+stride, vcore+2·stride, … Exactly one worker holds a
// strand at a time, which serializes each virtual core's DMEM and cycle
// accounting just like the per-core goroutines it replaces.
type strand struct {
	b     *batch
	vcore int
	next  int
}

// New builds a scheduler. Worker goroutines start lazily on first admission
// and are stopped by Close.
func New(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{cfg: cfg}
	s.cond = sync.NewCond(&s.mu)
	m := cfg.Metrics
	m.Describe("sched_admitted_total", "Queries admitted to the shared-SoC scheduler.")
	m.Describe("sched_rejected_total", "Admissions fast-failed with ErrOverloaded (queue full).")
	m.Describe("sched_canceled_while_queued_total", "Admissions abandoned by context cancellation while queued.")
	m.Describe("sched_preempted_total", "Work-unit boundaries where a worker switched to a different query.")
	m.Describe("sched_units_total", "Work units dispatched by the shared scheduler.")
	m.Describe("sched_queue_depth", "Admission requests currently waiting.")
	m.Describe("sched_active_queries", "Queries currently holding an execution slot.")
	m.Describe("sched_queue_wait_seconds", "Admission queue wait per query.")
	m.Describe("mem_slab_leases_total", "Operator-lifetime buffers leased from the scheduler's slab.")
	m.Describe("mem_slab_misses_total", "Slab leases served by a fresh heap allocation (no retained buffer of that size).")
	m.Describe("mem_slab_retained_bytes", "Bytes of returned buffers the slab holds for reuse (bounded by slabRetainBytes).")
	s.slab = mem.NewSlab(slabRetainBytes, m)
	s.admitted = m.Counter("sched_admitted_total")
	s.rejected = m.Counter("sched_rejected_total")
	s.canceled = m.Counter("sched_canceled_while_queued_total")
	s.preempted = m.Counter("sched_preempted_total")
	s.unitsTotal = m.Counter("sched_units_total")
	s.queueDepth = m.Gauge("sched_queue_depth")
	s.activeGauge = m.Gauge("sched_active_queries")
	s.waitHist = m.Histogram("sched_queue_wait_seconds")
	return s
}

func (s *Scheduler) normalize(req Request) Request {
	if req.Cores <= 0 || req.Cores > s.cfg.Workers {
		req.Cores = s.cfg.Workers
	}
	return req
}

// reservation is the scratchpad a normalized request holds while admitted.
// A demand above the scheduler's total budget is clamped to it, so an
// oversized query runs alone instead of never.
func (s *Scheduler) reservation(req Request) int64 {
	return min(int64(req.Cores)*int64(dpu.DefaultConfig().DMEMBytes), s.cfg.DMEMBudgetBytes)
}

func (s *Scheduler) canAdmitLocked(req Request) bool {
	return s.running < s.cfg.MaxConcurrent && s.dmemUsed+s.reservation(req) <= s.cfg.DMEMBudgetBytes
}

func (s *Scheduler) admitLocked(req Request) {
	s.running++
	s.dmemUsed += s.reservation(req)
	s.activeGauge.Set(int64(s.running))
	if !s.started {
		s.started = true
		for w := 0; w < s.cfg.Workers; w++ {
			s.wg.Add(1)
			go s.worker()
		}
	}
}

// Admit blocks until the query may execute, observing ctx for cancellation
// while queued. It fails fast with ErrOverloaded when the wait queue is
// full. The returned Admission is the query's execution handle: install it
// as the qef.Context's Exec and Release it when the query finishes.
func (s *Scheduler) Admit(ctx context.Context, req Request) (*Admission, error) {
	req = s.normalize(req)
	start := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	// Strict FIFO: even an immediately-satisfiable request queues behind
	// existing waiters so a big reservation at the head cannot starve.
	if len(s.waiting) == 0 && s.canAdmitLocked(req) {
		s.admitLocked(req)
		s.mu.Unlock()
		s.admitted.Inc()
		s.waitHist.Observe(0)
		return s.newAdmission(req, 0), nil
	}
	if len(s.waiting) >= s.cfg.MaxQueued {
		s.mu.Unlock()
		s.rejected.Inc()
		return nil, ErrOverloaded
	}
	w := &waiter{req: req, ready: make(chan struct{})}
	s.waiting = append(s.waiting, w)
	s.queueDepth.Set(int64(len(s.waiting)))
	s.mu.Unlock()

	select {
	case <-w.ready:
		if w.err != nil {
			return nil, w.err
		}
		wait := time.Since(start)
		s.admitted.Inc()
		s.waitHist.Observe(wait.Seconds())
		return s.newAdmission(req, wait), nil
	case <-ctx.Done():
		s.mu.Lock()
		if w.admitted {
			// Raced with dispatch: we hold a slot; give it back.
			s.releaseLocked(req)
			s.mu.Unlock()
			return nil, ctx.Err()
		}
		for i, q := range s.waiting {
			if q == w {
				s.waiting = append(s.waiting[:i], s.waiting[i+1:]...)
				break
			}
		}
		s.queueDepth.Set(int64(len(s.waiting)))
		s.mu.Unlock()
		s.canceled.Inc()
		return nil, ctx.Err()
	}
}

func (s *Scheduler) newAdmission(req Request, wait time.Duration) *Admission {
	return &Admission{s: s, req: req, wait: wait, q: &query{}}
}

// releaseLocked returns a query's reservation and dispatches eligible
// waiters in FIFO order.
func (s *Scheduler) releaseLocked(req Request) {
	s.running--
	s.dmemUsed -= s.reservation(req)
	s.activeGauge.Set(int64(s.running))
	for len(s.waiting) > 0 {
		w := s.waiting[0]
		if !s.canAdmitLocked(w.req) {
			break
		}
		s.admitLocked(w.req)
		w.admitted = true
		s.waiting = s.waiting[1:]
		close(w.ready)
	}
	s.queueDepth.Set(int64(len(s.waiting)))
}

// Close stops the scheduler: queued admissions fail with ErrClosed, workers
// drain any in-flight batches and exit. Safe to call more than once.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, w := range s.waiting {
		w.err = ErrClosed
		close(w.ready)
	}
	s.waiting = nil
	s.queueDepth.Set(0)
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
	s.slab.Close()
}

// Admission is one admitted query's handle: it carries the reservation and
// implements qef.Executor, so installing it as the context's Exec routes all
// of the query's work units through the shared pool.
type Admission struct {
	s        *Scheduler
	req      Request
	wait     time.Duration
	q        *query
	released bool
}

// Slab returns the scheduler's slab, for the query's qef.Context.
func (a *Admission) Slab() *mem.Slab { return a.s.slab }

// QueueWait returns how long the query waited in the admission queue.
func (a *Admission) QueueWait() time.Duration { return a.wait }

// Release returns the query's reservation, unblocking queued admissions.
// Call it exactly once, after the last RunUnits call has returned.
func (a *Admission) Release() {
	s := a.s
	s.mu.Lock()
	if a.released {
		s.mu.Unlock()
		return
	}
	a.released = true
	s.releaseLocked(a.req)
	s.mu.Unlock()
}

// RunUnits implements qef.Executor: it splits the batch into per-virtual-
// core strands, enqueues them for the worker pool and blocks until every
// unit has run (or been skipped by the first-error watermark).
func (a *Admission) RunUnits(qc *qef.Context, units []qef.WorkUnit) error {
	if len(units) == 0 {
		return nil
	}
	s := a.s
	stride := qc.Workers()
	if stride <= 0 {
		stride = 1
	}
	nstr := stride
	if len(units) < nstr {
		nstr = len(units)
	}
	b := &batch{
		q: a.q, qc: qc, units: units, stride: stride,
		errs: make([]error, len(units)), pending: nstr,
		done: make(chan struct{}),
	}
	b.firstFailed.Store(int64(len(units)))

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if a.released {
		s.mu.Unlock()
		return fmt.Errorf("sched: RunUnits after Release")
	}
	q := a.q
	for v := 0; v < nstr; v++ {
		q.runnable = append(q.runnable, &strand{b: b, vcore: v, next: v})
	}
	s.runnable += nstr
	if !q.inActive {
		q.inActive = true
		s.active = append(s.active, q)
	}
	s.mu.Unlock()
	s.cond.Broadcast()

	<-b.done
	if f := b.firstFailed.Load(); f < int64(len(units)) {
		return b.errs[f]
	}
	return nil
}

// pickLocked selects the next strand round-robin across active queries. Caller holds s.mu and has checked s.runnable > 0.
func (s *Scheduler) pickLocked() *strand {
	for {
		if s.cursor >= len(s.active) {
			s.cursor = 0
		}
		q := s.active[s.cursor]
		if len(q.runnable) == 0 {
			// Drained (its strands are executing or finished): drop from the
			// ring; a later requeue re-adds it.
			q.inActive = false
			s.active = append(s.active[:s.cursor], s.active[s.cursor+1:]...)
			continue
		}
		// Pop by shifting down, not by re-slicing: the list holds at most
		// one entry per virtual core, and keeping its backing array in place
		// means requeues never reallocate — how often a sliding window would
		// have depended on how the workers happened to interleave.
		st := q.runnable[0]
		n := copy(q.runnable, q.runnable[1:])
		q.runnable[n] = nil
		q.runnable = q.runnable[:n]
		s.runnable--
		s.cursor++
		return st
	}
}

// requeueLocked puts a strand with remaining units back at the tail of its
// query's runnable list — the unit-granularity preemption point.
func (s *Scheduler) requeueLocked(st *strand) {
	q := st.b.q
	q.runnable = append(q.runnable, st)
	s.runnable++
	if !q.inActive {
		q.inActive = true
		s.active = append(s.active, q)
	}
}

// strandDoneLocked retires a strand; the last one of a batch completes it.
func (s *Scheduler) strandDoneLocked(st *strand) {
	st.b.pending--
	if st.b.pending == 0 {
		close(st.b.done)
	}
}

// nextIdx returns the strand's next unit index, or ok=false when the strand
// is exhausted (end of sequence, or skipped past the first-error watermark —
// every remaining index is above it too, so the whole strand retires).
func (st *strand) nextIdx() (int, bool) {
	if st.next >= len(st.b.units) || int64(st.next) > st.b.firstFailed.Load() {
		return 0, false
	}
	idx := st.next
	st.next += st.b.stride
	return idx, true
}

// worker is one shared virtual dpCore: it executes one work unit per
// scheduling decision, on a TilePool borrowed for that unit.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	var lastQ *query // identity only; never dereferenced after release
	for {
		s.mu.Lock()
		for s.runnable == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.runnable == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		st := s.pickLocked()
		idx, ok := st.nextIdx()
		if !ok {
			s.strandDoneLocked(st)
			s.mu.Unlock()
			continue
		}
		var pool *mem.TilePool
		if n := len(s.pools); n > 0 {
			pool, s.pools = s.pools[n-1], s.pools[:n-1]
		} else {
			pool = mem.NewTilePool()
		}
		s.mu.Unlock()

		b := st.b
		if lastQ != nil && lastQ != b.q {
			s.preempted.Inc()
		}
		lastQ = b.q
		// The pool is lent for this unit only: no task context may keep a
		// pool that another worker holds next.
		tc := b.qc.TaskCtx(st.vcore)
		tc.Pool = pool
		err := b.qc.RunUnit(tc, b.units[idx])
		tc.Pool = nil
		s.unitsTotal.Inc()
		pool.TrimTo(poolRetainBytes)

		s.mu.Lock()
		s.pools = append(s.pools, pool)
		if err != nil {
			b.errs[idx] = err
			for {
				cur := b.firstFailed.Load()
				if int64(idx) >= cur || b.firstFailed.CompareAndSwap(cur, int64(idx)) {
					break
				}
			}
		}
		if st.next < len(b.units) {
			s.requeueLocked(st)
		} else {
			s.strandDoneLocked(st)
		}
		s.mu.Unlock()
		s.cond.Broadcast()
	}
}
