package dms

import (
	"errors"
	"testing"

	"rapid/internal/coltypes"
)

func TestDescriptorValidation(t *testing.T) {
	col := coltypes.New(coltypes.W4, 100)
	buf := coltypes.New(coltypes.W4, 64)
	good := &Descriptor{Dir: DirRead, Col: col, Buf: buf, Rows: 64}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Descriptor{
		{Dir: DirRead, Col: col, Buf: buf, Rows: 0},
		{Dir: DirRead, Col: coltypes.Data{}, Buf: buf, Rows: 64},
		{Dir: DirRead, Col: col, Buf: coltypes.New(coltypes.W4, 32), Rows: 64},
		{Dir: DirRead, Col: col, Buf: coltypes.New(coltypes.W8, 64), Rows: 64},
	}
	for i, d := range bad {
		if d.Validate() == nil {
			t.Errorf("descriptor %d should fail validation", i)
		}
	}
	e, _ := newEngine()
	if _, err := e.NewLoop(bad[0]); err == nil {
		t.Fatal("NewLoop must validate")
	}
}

func TestLoopReadModifyWrite(t *testing.T) {
	e, _ := newEngine()
	n := 1000
	src := coltypes.New(coltypes.W4, n)
	dst := coltypes.New(coltypes.W4, n)
	for i := 0; i < n; i++ {
		src.Set(i, int64(i))
	}
	inBuf := coltypes.New(coltypes.W4, 128)
	outBuf := coltypes.New(coltypes.W4, 128)
	loop, err := e.NewLoop(
		&Descriptor{Dir: DirRead, Col: src, Buf: inBuf, Rows: 128},
		&Descriptor{Dir: DirWrite, Col: dst, Buf: outBuf, Rows: 128},
	)
	if err != nil {
		t.Fatal(err)
	}
	rows, tm, err := loop.Run(func(rows int) error {
		for i := 0; i < rows; i++ {
			outBuf.Set(i, src.Width().MaxInt()&(inBuf.Get(i)*2)) // double each value
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != n {
		t.Fatalf("rows = %d", rows)
	}
	if tm.Bytes != int64(2*n*4) || tm.Seconds <= 0 {
		t.Fatalf("timing = %+v", tm)
	}
	for i := 0; i < n; i++ {
		if dst.Get(i) != int64(2*i) {
			t.Fatalf("dst[%d] = %d", i, dst.Get(i))
		}
	}
	// Loop is reusable after Reset.
	loop.Reset()
	if loop.Remaining() != n {
		t.Fatal("Reset should rewind")
	}
}

func TestLoopBodyError(t *testing.T) {
	e, _ := newEngine()
	src := coltypes.New(coltypes.W4, 256)
	buf := coltypes.New(coltypes.W4, 64)
	loop, _ := e.NewLoop(&Descriptor{Dir: DirRead, Col: src, Buf: buf, Rows: 64})
	boom := errors.New("boom")
	_, _, err := loop.Run(func(int) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestLoopPartialTail(t *testing.T) {
	e, _ := newEngine()
	src := coltypes.New(coltypes.W4, 100) // not a multiple of 64
	buf := coltypes.New(coltypes.W4, 64)
	loop, _ := e.NewLoop(&Descriptor{Dir: DirRead, Col: src, Buf: buf, Rows: 64})
	var sizes []int
	rows, _, err := loop.Run(func(n int) error {
		sizes = append(sizes, n)
		return nil
	})
	if err != nil || rows != 100 {
		t.Fatalf("rows = %d, err %v", rows, err)
	}
	if len(sizes) != 2 || sizes[0] != 64 || sizes[1] != 36 {
		t.Fatalf("iteration sizes = %v", sizes)
	}
}
