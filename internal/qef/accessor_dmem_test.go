package qef

import (
	"testing"

	"rapid/internal/coltypes"
)

// TestGatherAdmissionBeforeHostAlloc pins the fix for the ordering bug where
// GatherTile allocated the destination buffer BEFORE asking
// DMEM for admission: a rejected gather must not pay for the buffer it was
// denied.
func TestGatherAdmissionBeforeHostAlloc(t *testing.T) {
	ctx := NewContext(ModeDPU)
	err := ctx.RunSerial(func(tc *TaskCtx) error {
		const n = 1024
		col := coltypes.New(coltypes.W8, n)
		rids := make([]uint32, n)
		for i := range rids {
			rids[i] = uint32(i)
		}
		// Exhaust DMEM to below the gather's need (n*8 bytes).
		if err := tc.DMEM.Alloc(tc.DMEM.Free() - 64); err != nil {
			return err
		}
		ra := NewAccessor(tc)
		base := tc.Pool().DataBytesInUse()

		if _, err := ra.GatherTile(col, rids); err == nil {
			t.Error("GatherTile succeeded despite exhausted DMEM")
		}
		if got := tc.Pool().DataBytesInUse(); got != base {
			t.Errorf("GatherTile took %d pool bytes before the admission check rejected it", got-base)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

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
