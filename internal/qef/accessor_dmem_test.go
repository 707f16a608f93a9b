package qef

import "testing"

// TestScratchLifetimes exercises the pool lifetime model through the TaskCtx
// API: unit-lifetime takes survive ResetScratch, tile-lifetime takes are
// recycled, and recycled buffers come back zeroed.
func TestScratchLifetimes(t *testing.T) {
	ctx := NewContext(ModeX86)
	err := ctx.RunSerial(func(tc *TaskCtx) error {
		tc.MarkScratch()
		unit := tc.I64Scratch(8)
		unit[0] = 42
		tc.MarkScratch() // tile floor

		a := tc.I64Scratch(16)
		a[5] = 99
		tile1 := tc.TileScratch(tc.ColScratch(2), 16)
		tc.ResetScratch()

		b := tc.I64Scratch(16)
		if &a[0] != &b[0] {
			t.Error("tile-lifetime buffer not recycled by ResetScratch")
		}
		if b[5] != 0 {
			t.Error("recycled scratch not zeroed")
		}
		tile2 := tc.TileScratch(tc.ColScratch(2), 32)
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
