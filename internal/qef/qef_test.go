package qef

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"rapid/internal/bits"
	"rapid/internal/coltypes"
	"rapid/internal/dms"
)

func TestContextModes(t *testing.T) {
	dpuCtx := NewContext(ModeDPU)
	if dpuCtx.Workers() != 32 {
		t.Fatalf("DPU workers = %d", dpuCtx.Workers())
	}
	x86 := NewContext(ModeX86)
	if x86.Workers() < 1 || x86.Workers() > 32 {
		t.Fatalf("x86 workers = %d", x86.Workers())
	}
	if ModeDPU.String() != "dpu" || ModeX86.String() != "x86" {
		t.Fatal("mode strings")
	}
}

func TestRunParallelExecutesAll(t *testing.T) {
	ctx := NewContext(ModeDPU)
	var count atomic.Int64
	units := make([]WorkUnit, 100)
	for i := range units {
		units[i] = func(tc *TaskCtx) error {
			if tc.Core == nil {
				return errors.New("DPU mode must pin cores")
			}
			tc.Core.Charge(1000)
			count.Add(1)
			return nil
		}
	}
	if err := ctx.RunParallel(units); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 100 {
		t.Fatalf("ran %d units", count.Load())
	}
	var busy float64
	for _, sec := range ctx.Usage().CoreSeconds {
		busy += sec
	}
	if ctx.SimElapsed() <= 0 || busy < ctx.SimElapsed() {
		t.Fatalf("sim times: elapsed=%g busy=%g", ctx.SimElapsed(), busy)
	}
	// Total busy time equals the work performed regardless of scheduling.
	wantBusy := 100 * 1000.0 / 800e6
	if busy < wantBusy*0.99 || busy > wantBusy*1.01 {
		t.Fatalf("busy = %g, want ~%g", busy, wantBusy)
	}
	ctx.Reset()
	if ctx.SimElapsed() != 0 || ctx.SoC.TotalCycles() != 0 {
		t.Fatal("Reset")
	}
}

func TestRunParallelPropagatesError(t *testing.T) {
	ctx := NewContext(ModeDPU)
	boom := errors.New("boom")
	units := []WorkUnit{
		func(tc *TaskCtx) error { return nil },
		func(tc *TaskCtx) error { return boom },
		func(tc *TaskCtx) error { return nil },
	}
	if err := ctx.RunParallel(units); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestOverlapAccounting(t *testing.T) {
	// Compute-bound unit: elapsed == compute; transfer hidden.
	ctx := NewContext(ModeDPU)
	err := ctx.RunSerial(func(tc *TaskCtx) error {
		tc.Core.Charge(800e6) // 1 simulated second of compute
		tc.AddTransfer(timing(0.2))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if e := ctx.SimElapsed(); e < 0.99 || e > 1.01 {
		t.Fatalf("overlapped elapsed = %g, want ~1.0", e)
	}
	// Transfer-bound.
	ctx2 := NewContext(ModeDPU)
	_ = ctx2.RunSerial(func(tc *TaskCtx) error {
		tc.Core.Charge(80e6) // 0.1 s
		tc.AddTransfer(timing(0.5))
		return nil
	})
	if e := ctx2.SimElapsed(); e < 0.49 || e > 0.51 {
		t.Fatalf("transfer-bound elapsed = %g, want ~0.5", e)
	}
}

func TestTileSelection(t *testing.T) {
	cols := []coltypes.Data{coltypes.FromInt64s(coltypes.W4, []int64{1, 2, 3, 4})}
	tile := &Tile{Cols: cols, N: 4}
	if !tile.Dense() || tile.QualifyingRows() != 4 {
		t.Fatal("dense tile")
	}
	rids := tile.AppendSelRIDs(nil)
	if len(rids) != 4 || rids[3] != 3 {
		t.Fatal("dense AppendSelRIDs")
	}
	bv := bits.NewVector(4)
	bv.Set(1)
	bv.Set(3)
	tile.Sel = bv
	if tile.QualifyingRows() != 2 || tile.Dense() {
		t.Fatal("bv selection")
	}
	if rids := tile.AppendSelRIDs(nil); len(rids) != 2 || rids[0] != 1 || rids[1] != 3 {
		t.Fatalf("bv AppendSelRIDs = %v", rids)
	}
	tile.Sel = nil
	tile.RIDs = []uint32{0, 2}
	if tile.QualifyingRows() != 2 || tile.AppendSelRIDs(nil)[1] != 2 {
		t.Fatal("rid selection")
	}
}

func TestAccessorSequentialBothModes(t *testing.T) {
	for _, mode := range []Mode{ModeDPU, ModeX86} {
		ctx := NewContext(mode)
		n := 1000
		cola := coltypes.New(coltypes.W4, n)
		colb := coltypes.New(coltypes.W8, n)
		for i := 0; i < n; i++ {
			cola.Set(i, int64(i))
			colb.Set(i, int64(i*2))
		}
		var sum int64
		var tiles int
		err := ctx.RunSerial(func(tc *TaskCtx) error {
			return Sequential(tc, [][]coltypes.Data{{cola, colb}}, 256, func(t *Tile) error {
				tiles++
				if t.N > 256 {
					return errors.New("tile too big")
				}
				for i := 0; i < t.N; i++ {
					if t.Cols[1].Get(i) != 2*t.Cols[0].Get(i) {
						return errors.New("columns misaligned")
					}
					sum += t.Cols[0].Get(i)
				}
				return nil
			})
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if tiles != 4 {
			t.Fatalf("%v: tiles = %d", mode, tiles)
		}
		if sum != int64(n*(n-1)/2) {
			t.Fatalf("%v: sum = %d", mode, sum)
		}
		if mode == ModeDPU && ctx.SimElapsed() <= 0 {
			t.Fatal("DPU mode should account transfer time")
		}
	}
}

// TestAccessorTilesAreViewsInBothModes: a ModeDPU tile column aliases its
// DRAM source exactly as a ModeX86 one does — the DMS read is billed, not
// performed — and the bill is one read per tile.
func TestAccessorTilesAreViewsInBothModes(t *testing.T) {
	for _, mode := range []Mode{ModeDPU, ModeX86} {
		ctx := NewContext(mode)
		col := coltypes.New(coltypes.W4, 1000)
		src := col.I32()
		lo := 0
		err := ctx.RunSerial(func(tc *TaskCtx) error {
			return Sequential(tc, [][]coltypes.Data{{col}}, 256, func(t *Tile) error {
				if &t.Cols[0].I32()[0] != &src[lo] {
					return errors.New("tile column is a copy of its source, not a view")
				}
				lo += t.N
				return nil
			})
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if lo != col.Len() {
			t.Fatalf("%v: streamed %d rows, want %d", mode, lo, col.Len())
		}
		want := dms.Timing{}
		if mode == ModeDPU {
			want = dms.Timing{Bytes: 4000, Descriptors: 4} // four 256-row tiles of W4
		}
		if got := ctx.Usage().Read; got.Bytes != want.Bytes || got.Descriptors != want.Descriptors {
			t.Fatalf("%v: billed %+v, want %d B in %d descriptors", mode, got, want.Bytes, want.Descriptors)
		}
	}
}

func TestAccessorSequentialEnforcesMinTile(t *testing.T) {
	ctx := NewContext(ModeX86)
	col := coltypes.New(coltypes.W4, 200)
	tiles := 0
	_ = ctx.RunSerial(func(tc *TaskCtx) error {
		return Sequential(tc, [][]coltypes.Data{{col}}, 10, func(t *Tile) error {
			tiles++
			if t.N > MinTileRows {
				return errors.New("tile above clamped size")
			}
			return nil
		})
	})
	// 200 rows at minimum 64-row tiles = 4 tiles.
	if tiles != 4 {
		t.Fatalf("tiles = %d", tiles)
	}
}

func TestAccessorDMEMExhaustion(t *testing.T) {
	// 40 columns of 8 bytes need 40960 bytes of double buffers even at the
	// 64-row minimum tile: beyond the 32 KiB DMEM, so after degrading the
	// tile all the way down the accessor must still fail cleanly.
	ctx := NewContext(ModeDPU)
	cols := make([]coltypes.Data, 40)
	for i := range cols {
		cols[i] = coltypes.New(coltypes.W8, 4096)
	}
	err := ctx.RunSerial(func(tc *TaskCtx) error {
		return Sequential(tc, [][]coltypes.Data{cols}, 2048, func(t *Tile) error { return nil })
	})
	if err == nil {
		t.Fatal("expected DMEM exhaustion")
	}
}

func TestAccessorDegradesTileUnderPressure(t *testing.T) {
	// 32 columns of 8 bytes fit exactly at the 64-row minimum tile
	// (2*64*256 = 32 KiB): instead of failing on the requested 2048-row
	// tile, the accessor shrinks it (§6.4 graceful degradation) and streams
	// every row.
	ctx := NewContext(ModeDPU)
	const rows = 4096
	cols := make([]coltypes.Data, 32)
	for i := range cols {
		cols[i] = coltypes.New(coltypes.W8, rows)
	}
	maxTile, seen := 0, 0
	err := ctx.RunSerial(func(tc *TaskCtx) error {
		return Sequential(tc, [][]coltypes.Data{cols}, 2048, func(t *Tile) error {
			if t.N > maxTile {
				maxTile = t.N
			}
			seen += t.N
			return nil
		})
	})
	if err != nil {
		t.Fatalf("expected degraded success, got %v", err)
	}
	if maxTile != MinTileRows {
		t.Fatalf("tile = %d, want shrunk to %d", maxTile, MinTileRows)
	}
	if seen != rows {
		t.Fatalf("streamed %d rows, want %d", seen, rows)
	}
}

func timing(sec float64) dms.Timing { return dms.Timing{Seconds: sec} }

// lateTimer is a context whose deadline has passed but whose timer has not
// fired: Deadline() is in the past, Done() never closes, Err() stays nil.
type lateTimer struct{ context.Context }

func (lateTimer) Deadline() (time.Time, bool) { return time.Now().Add(-time.Second), true }

// TestQueryContextHonoursPastDeadlineOnEntry: the derived context is done
// with DeadlineExceeded synchronously, without waiting for any timer; a
// future deadline or none leaves it live and cancelable.
func TestQueryContextHonoursPastDeadlineOnEntry(t *testing.T) {
	qctx, cancel := QueryContext(lateTimer{context.Background()})
	defer cancel()
	if !errors.Is(qctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("past deadline: Err() = %v, want DeadlineExceeded", qctx.Err())
	}
	future, cancelF := context.WithTimeout(context.Background(), time.Hour)
	defer cancelF()
	for _, parent := range []context.Context{context.Background(), future} {
		qctx, cancel := QueryContext(parent)
		if qctx.Err() != nil {
			t.Fatalf("live parent: Err() = %v", qctx.Err())
		}
		cancel()
		if !errors.Is(qctx.Err(), context.Canceled) {
			t.Fatalf("after cancel: Err() = %v", qctx.Err())
		}
	}
}
