package qef

import (
	"testing"

	"rapid/internal/coltypes"
)

// TestScratchLifetimes exercises the pool lifetime model through the TaskCtx
// API: unit-lifetime takes survive ResetScratch, tile-lifetime takes are
// recycled, and recycled header slices come back cleared (data buffers come
// back as they stand: scratch is un-zeroed).
func TestScratchLifetimes(t *testing.T) {
	ctx := NewContext(ModeX86)
	err := ctx.RunSerial(func(tc *TaskCtx) error {
		tc.Pool.Mark()
		unit := tc.Pool.I64(8)
		unit[0] = 42
		tc.Pool.Mark() // tile floor

		a := tc.Pool.I64(16)
		hdrs := tc.Pool.Headers(2)
		hdrs[0] = coltypes.Of(a)
		tile1 := tc.TileScratch(hdrs, 16)
		tc.ResetScratch()

		b := tc.Pool.I64(16)
		if &a[0] != &b[0] {
			t.Error("tile-lifetime buffer not recycled by ResetScratch")
		}
		hdrs2 := tc.Pool.Headers(2)
		if &hdrs2[0] != &hdrs[0] || hdrs2[0].Len() != 0 {
			t.Error("recycled header scratch not cleared")
		}
		tile2 := tc.TileScratch(hdrs2, 32)
		if tile1 != tile2 {
			t.Error("Tile struct not recycled by ResetScratch")
		}
		if unit[0] != 42 {
			t.Error("unit-lifetime buffer clobbered by ResetScratch")
		}
		tc.Pool.Release()
		tc.Pool.Release()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
