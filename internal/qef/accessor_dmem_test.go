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
		tc.MarkScratch()
		unit := tc.I64Scratch(8)
		unit[0] = 42
		tc.MarkScratch() // tile floor

		a := tc.I64Scratch(16)
		hdrs := tc.ColScratch(2)
		hdrs[0] = coltypes.Of(a)
		tile1 := tc.TileScratch(hdrs, 16)
		tc.ResetScratch()

		b := tc.I64Scratch(16)
		if &a[0] != &b[0] {
			t.Error("tile-lifetime buffer not recycled by ResetScratch")
		}
		hdrs2 := tc.ColScratch(2)
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
		tc.ReleaseScratch()
		tc.ReleaseScratch()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
