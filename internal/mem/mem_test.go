package mem

import (
	"errors"
	"testing"
)

func TestDMEMCapacity(t *testing.T) {
	d := NewDMEM()
	if d.Capacity() != 32*1024 {
		t.Fatalf("Capacity = %d, want 32768", d.Capacity())
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
	if d.Used() != 8 {
		t.Fatalf("Used = %d, want 8 (aligned)", d.Used())
	}
	if err := d.Alloc(9); err != nil {
		t.Fatal(err)
	}
	if d.Used() != 24 {
		t.Fatalf("Used = %d, want 24", d.Used())
	}
	if !d.Fits(40) || d.Fits(41) {
		t.Fatalf("Fits boundary wrong: free=%d", d.Free())
	}
}

func TestDMEMMarkRelease(t *testing.T) {
	d := NewDMEMWithCapacity(1024)
	d.MustAlloc(100)
	d.Mark()
	d.MustAlloc(200)
	d.Mark()
	d.MustAlloc(300)
	d.Release()
	if d.Used() != align(100)+align(200) {
		t.Fatalf("Used after inner Release = %d", d.Used())
	}
	d.Release()
	if d.Used() != align(100) {
		t.Fatalf("Used after outer Release = %d", d.Used())
	}
	mustPanicMem(t, func() { d.Release() })
	d.Reset()
	if d.Used() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestDMEMTypedAlloc(t *testing.T) {
	d := NewDMEMWithCapacity(100)
	s, err := AllocDMEM[int32](d, 10)
	if err != nil || len(s) != 10 {
		t.Fatalf("AllocDMEM int32: %v len=%d", err, len(s))
	}
	if d.Used() != 40 {
		t.Fatalf("Used = %d, want 40", d.Used())
	}
	if _, err := AllocDMEM[int64](d, 10); err == nil {
		t.Fatal("expected exhaustion for 80 bytes in 60 free")
	}
	b, err := d.TryAllocBytes(16)
	if err != nil || len(b) != 16 {
		t.Fatalf("TryAllocBytes: %v", err)
	}
}

func TestDMEMPanics(t *testing.T) {
	mustPanicMem(t, func() { NewDMEMWithCapacity(-1) })
	d := NewDMEM()
	mustPanicMem(t, func() { d.Alloc(-5) })
	small := NewDMEMWithCapacity(8)
	mustPanicMem(t, func() { small.MustAlloc(16) })
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
