package qef

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rapid/internal/coltypes"
	"rapid/internal/dpu"
)

var billingCols = []coltypes.Data{coltypes.New(coltypes.W4, 64)}

// billingUnit charges a random mix of cycles, DMS traffic in both directions
// and DMEM on whatever core it lands on.
func billingUnit(seed int64) WorkUnit {
	return func(tc *TaskCtx) error {
		rng := rand.New(rand.NewSource(seed))
		tc.Core.Charge(dpu.Cycles(rng.Intn(5000)))
		for i := rng.Intn(4); i > 0; i-- {
			tc.AddTransfer(tc.DMS.StreamWrite(rng.Intn(4096)))
		}
		for i := rng.Intn(4); i > 0; i-- {
			tc.AddTransfer(tc.DMS.WriteTiming(1+rng.Intn(3), rng.Intn(256), 8))
		}
		for i := rng.Intn(3); i > 0; i-- {
			n := rng.Intn(64)
			tc.AddTransfer(tc.DMS.Read(billingCols, 0, n))
		}
		return tc.DMEM.Alloc(1 + rng.Intn(8192))
	}
}

func closeTo(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// TestUsageDeltasTelescope: for any sequence of work-unit batches, the
// per-batch Usage deltas add up to the delta across the whole sequence —
// integers exactly, seconds to rounding — and no delta's elapsed time
// undercuts its own bus occupancy.
func TestUsageDeltasTelescope(t *testing.T) {
	prop := func(seed int64, batches uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ctx := NewContextWith(ModeDPU, smallCfg())
		if err := ctx.RunSerial(billingUnit(seed)); err != nil { // u0 is not the zero Usage
			t.Error(err)
			return false
		}
		u0 := ctx.Usage()
		prev, sum := u0, u0.Sub(u0)
		for b := int(batches%6) + 1; b > 0; b-- {
			units := make([]WorkUnit, rng.Intn(12))
			for i := range units {
				units[i] = billingUnit(rng.Int63())
			}
			if err := ctx.RunParallel(units); err != nil {
				t.Error(err)
				return false
			}
			ctx.AddTilesPruned(int64(rng.Intn(5)))
			u := ctx.Usage()
			d := u.Sub(prev)
			if d.SimElapsed() < math.Max(d.BusRead, d.BusWrite) {
				t.Errorf("delta elapsed %g below its bus occupancy %g/%g", d.SimElapsed(), d.BusRead, d.BusWrite)
				return false
			}
			for i := range sum.CoreCycles {
				sum.CoreCycles[i] += d.CoreCycles[i]
				sum.CoreSeconds[i] += d.CoreSeconds[i]
			}
			sum.Read.Add(d.Read)
			sum.Write.Add(d.Write)
			sum.BusRead += d.BusRead
			sum.BusWrite += d.BusWrite
			sum.TilesPruned += d.TilesPruned
			prev = u
		}
		want := prev.Sub(u0)
		for i := range want.CoreCycles {
			if sum.CoreCycles[i] != want.CoreCycles[i] || !closeTo(sum.CoreSeconds[i], want.CoreSeconds[i]) {
				t.Errorf("core %d: Σ deltas %d cy / %g s, whole %d cy / %g s",
					i, sum.CoreCycles[i], sum.CoreSeconds[i], want.CoreCycles[i], want.CoreSeconds[i])
				return false
			}
		}
		if sum.Read.Bytes != want.Read.Bytes || sum.Write.Bytes != want.Write.Bytes ||
			sum.Read.Descriptors != want.Read.Descriptors || sum.Write.Descriptors != want.Write.Descriptors ||
			sum.TilesPruned != want.TilesPruned || sum.Cycles() != want.Cycles() {
			t.Errorf("integer ledger: Σ deltas %+v, whole %+v", sum, want)
			return false
		}
		for _, p := range [][2]float64{
			{sum.Read.Seconds, want.Read.Seconds}, {sum.Write.Seconds, want.Write.Seconds},
			{sum.BusRead, want.BusRead}, {sum.BusWrite, want.BusWrite},
		} {
			if !closeTo(p[0], p[1]) {
				t.Errorf("seconds: Σ deltas %g, whole %g", p[0], p[1])
				return false
			}
		}
		// The bus lanes and the engine's own ledger saw the same transfers.
		return closeTo(prev.BusWrite+prev.BusRead, prev.Write.Seconds+prev.Read.Seconds) &&
			prev.DMEMHighWater > 0 && prev.DMEMHighWater <= smallCfg().DMEMBytes
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestNewContextAllocs pins construction cost: a tray statement builds one
// context per node plus the coordinator's.
func TestNewContextAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(50, func() { NewContext(ModeDPU) }); n > 80 {
		t.Fatalf("NewContext allocates %.0f times, budget 80", n)
	}
}
