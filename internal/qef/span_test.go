package qef

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rapid/internal/dpu"
	"rapid/internal/obs"
)

type nopOp struct{}

func (nopOp) DMEMSize(int) int              { return 0 }
func (nopOp) Open(*TaskCtx) error           { return nil }
func (nopOp) Produce(*TaskCtx, *Tile) error { return nil }
func (nopOp) Close(*TaskCtx) error          { return nil }

// smallCfg is a 4-core DPU so RunParallel worker/unit assignment is exact
// and machine-independent in both modes.
func smallCfg() dpu.Config {
	cfg := dpu.DefaultConfig()
	cfg.NumCores = 4
	return cfg
}

func profiledCtx(mode Mode) *Context {
	ctx := NewContextWith(mode, smallCfg())
	defs := []obs.SpanDef{
		{ID: 0, Parent: -1, Name: "sink"},
		{ID: 1, Parent: 0, Name: "source"},
	}
	ctx.Prof = obs.NewProfile(mode.String(), cfg(ctx), dpu.FreqHz, defs)
	return ctx
}

func cfg(ctx *Context) int { return ctx.SoC.Config().NumCores }

// TestSpanZeroAllocPerTile pins the tentpole's overhead contract: spans are
// preallocated at plan time and the per-tile profiling path (span switch,
// row ticks, interval flush) allocates nothing.
func TestSpanZeroAllocPerTile(t *testing.T) {
	for _, mode := range []Mode{ModeX86, ModeDPU} {
		ctx := profiledCtx(mode)
		op := WithSpan(nopOp{}, ctx.Prof.Span(0), ctx.Prof.Span(1))
		tile := &Tile{N: 256}
		err := ctx.RunSerial(func(tc *TaskCtx) error {
			if err := op.Open(tc); err != nil {
				return err
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := op.Produce(tc, tile); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("mode %v: %v allocs per tile, want 0", mode, allocs)
			}
			return op.Close(tc)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestWithSpanPassthroughWhenOff(t *testing.T) {
	op := nopOp{}
	if got := WithSpan(op, nil, nil); got != Operator(op) {
		t.Error("WithSpan with nil spans should return the operator unchanged")
	}
}

// TestRunParallelFirstErrorDeterministic pins the error contract: with
// failures injected at units 7, 9 and 21, the returned error is always
// unit 7's (the lowest failing index), every unit below it always runs,
// and the failing worker's own later units never run.
func TestRunParallelFirstErrorDeterministic(t *testing.T) {
	sent7 := errors.New("unit 7 failed")
	sent9 := errors.New("unit 9 failed")
	sent21 := errors.New("unit 21 failed")
	for trial := 0; trial < 50; trial++ {
		ctx := NewContextWith(ModeDPU, smallCfg()) // 4 workers exactly
		const n = 32
		var ran [n]atomic.Bool
		units := make([]WorkUnit, n)
		for i := 0; i < n; i++ {
			i := i
			units[i] = func(tc *TaskCtx) error {
				ran[i].Store(true)
				switch i {
				case 7:
					return sent7
				case 9:
					return sent9
				case 21:
					return sent21
				}
				return nil
			}
		}
		err := ctx.RunParallel(units)
		if !errors.Is(err, sent7) {
			t.Fatalf("trial %d: got %v, want unit 7's error", trial, err)
		}
		for i := 0; i < 7; i++ {
			if !ran[i].Load() {
				t.Fatalf("trial %d: unit %d below first failure did not run", trial, i)
			}
		}
		// Unit 13 shares worker 1 with failing unit 9 (13 mod 4 == 9 mod 4)
		// and comes later in its round-robin sequence.
		if ran[13].Load() {
			t.Fatalf("trial %d: unit 13 ran after its worker's unit 9 failed", trial)
		}
	}
}

// TestRunParallelCancelsSiblingWorkers pins the fix for the cross-worker
// leak: before, a failing unit only stopped its own worker and sibling
// workers kept draining their queues. Now units above the failure index
// that have not started are skipped on every worker.
func TestRunParallelCancelsSiblingWorkers(t *testing.T) {
	ctx := NewContextWith(ModeDPU, smallCfg()) // 4 workers
	sent := errors.New("unit 0 failed")
	failed := make(chan struct{})
	const n = 24
	var ran [n]atomic.Bool
	units := make([]WorkUnit, n)
	for i := 0; i < n; i++ {
		i := i
		units[i] = func(tc *TaskCtx) error {
			ran[i].Store(true)
			switch {
			case i == 0:
				close(failed)
				return sent
			case i < 4:
				// First unit of each sibling worker: already in flight when
				// unit 0 fails. Give the failure ample time to be recorded,
				// then finish normally.
				<-failed
				time.Sleep(100 * time.Millisecond)
			}
			return nil
		}
	}
	if err := ctx.RunParallel(units); !errors.Is(err, sent) {
		t.Fatalf("got %v, want unit 0's error", err)
	}
	for i := 4; i < n; i++ {
		if ran[i].Load() {
			t.Errorf("unit %d ran after unit 0 failed; sibling workers were not cancelled", i)
		}
	}
}

func TestRunParallelNoErrorRunsAllOnce(t *testing.T) {
	ctx := NewContextWith(ModeDPU, smallCfg())
	const n = 19
	var count [n]atomic.Int64
	units := make([]WorkUnit, n)
	var mu sync.Mutex
	coresSeen := map[int]bool{}
	for i := 0; i < n; i++ {
		i := i
		units[i] = func(tc *TaskCtx) error {
			count[i].Add(1)
			mu.Lock()
			coresSeen[tc.CoreID] = true
			mu.Unlock()
			return nil
		}
	}
	if err := ctx.RunParallel(units); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := count[i].Load(); got != 1 {
			t.Errorf("unit %d ran %d times", i, got)
		}
	}
	if len(coresSeen) != 4 {
		t.Errorf("expected all 4 workers used, saw %d", len(coresSeen))
	}
}
