package mem

import (
	"errors"
	"testing"
)

func TestDMEMCapacity(t *testing.T) {
	d := NewDMEMWithCapacity(DMEMSize)
	if d.Free() != 32*1024 {
		t.Fatalf("Free = %d, want 32768", d.Free())
	}
	if err := d.Alloc(32 * 1024); err != nil {
		t.Fatalf("full alloc failed: %v", err)
	}
	err := d.Alloc(1)
	var ex *ErrDMEMExhausted
	if !errors.As(err, &ex) {
		t.Fatalf("expected ErrDMEMExhausted, got %v", err)
	}
	if ex.Free != 0 {
		t.Fatalf("Free in error = %d", ex.Free)
	}
}

func TestDMEMAlignment(t *testing.T) {
	d := NewDMEMWithCapacity(64)
	if err := d.Alloc(1); err != nil {
		t.Fatal(err)
	}
	if d.Free() != 64-8 {
		t.Fatalf("Free = %d, want 56 (1 byte aligned to 8)", d.Free())
	}
	if err := d.Alloc(9); err != nil {
		t.Fatal(err)
	}
	if d.Free() != 64-24 {
		t.Fatalf("Free = %d, want 40", d.Free())
	}
	// 41 bytes align to 48 and do not fit the 40 left; 40 do.
	if err := d.Alloc(41); err == nil {
		t.Fatal("41 bytes fit in 40 free")
	}
	if err := d.Alloc(40); err != nil || d.Free() != 0 {
		t.Fatalf("40 bytes in 40 free: %v, free=%d", err, d.Free())
	}
}

func TestDMEMMarkRelease(t *testing.T) {
	d := NewDMEMWithCapacity(1024)
	used := func() int { return 1024 - d.Free() }
	alloc := func(n int) {
		t.Helper()
		if err := d.Alloc(n); err != nil {
			t.Fatal(err)
		}
	}
	alloc(100)
	d.Mark()
	alloc(200)
	d.Mark()
	alloc(300)
	d.Release()
	if used() != align(100)+align(200) {
		t.Fatalf("used after inner Release = %d", used())
	}
	d.Release()
	if used() != align(100) {
		t.Fatalf("used after outer Release = %d", used())
	}
	mustPanicMem(t, func() { d.Release() })
	d.Reset()
	if used() != 0 {
		t.Fatal("Reset failed")
	}
	if d.HighWater() != align(100)+align(200)+align(300) {
		t.Fatalf("HighWater = %d, must survive Release and Reset", d.HighWater())
	}
}

func TestDMEMPanics(t *testing.T) {
	mustPanicMem(t, func() { NewDMEMWithCapacity(-1) })
	d := NewDMEMWithCapacity(DMEMSize)
	mustPanicMem(t, func() { d.Alloc(-5) })
}

func mustPanicMem(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}
