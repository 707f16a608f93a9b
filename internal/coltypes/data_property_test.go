package coltypes

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

var allWidths = []Width{W1, W2, W4, W8}

// truncate is the model of storing v at width w: keep the low w bytes, sign
// extended.
func truncate(w Width, v int64) int64 {
	shift := 64 - 8*uint(w)
	return v << shift >> shift
}

// mustPanic runs fn and returns the panic message; it fails the test when fn
// returns normally.
func mustPanic(t *testing.T, what string, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("%s: no panic", what)
			return
		}
		if s, ok := r.(string); ok {
			msg = s
		} else if e, ok := r.(error); ok {
			msg = e.Error()
		}
	}()
	fn()
	return ""
}

// sameAsModel reports whether d holds exactly the values of model.
func sameAsModel(d Data, model []int64) bool {
	if d.Len() != len(model) || d.SizeBytes() != len(model)*d.Width().Bytes() {
		return false
	}
	for i, v := range model {
		if d.Get(i) != v {
			return false
		}
	}
	return true
}

// TestDataAgainstSliceModel drives every Data operation, at every width,
// beside a plain []int64 model: a random sequence of Set, Slice (views of
// views, empty and length-1 views included), NewSame, CopyFrom, Gather,
// Scatter and Zero must leave Data and model equal. It is the test that
// walks the unsafe code of vec.go under -race (checkptr).
func TestDataAgainstSliceModel(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := allWidths[rng.Intn(len(allWidths))]
		value := func() int64 {
			switch rng.Intn(4) {
			case 0:
				return w.MinInt()
			case 1:
				return w.MaxInt()
			}
			return int64(rng.Uint64()) // exercises truncation at narrow widths
		}
		n := rng.Intn(70)
		d, model := New(w, n), make([]int64, n)
		for step := 0; step < 60; step++ {
			if d.Width() != w || !sameAsModel(d, model) {
				t.Logf("seed %d step %d width %d: data %v, model %v", seed, step, w, ToInt64s(d), model)
				return false
			}
			n = d.Len()
			switch op := rng.Intn(7); {
			case op == 0 && n > 0: // Set / Get
				i, v := rng.Intn(n), value()
				d.Set(i, v)
				model[i] = truncate(w, v)
			case op == 1: // view of the current view; writes must land in the parent
				lo := rng.Intn(n + 1)
				hi := lo + rng.Intn(n-lo+1)
				if rng.Intn(4) == 0 {
					hi = min(lo+rng.Intn(2), n) // favour empty and length-1 views
				}
				v, vm := d.Slice(lo, hi), model[lo:hi]
				if len(vm) > 0 {
					x := value()
					v.Set(0, x)
					vm[0] = truncate(w, x)
					if d.Get(lo) != vm[0] {
						return false
					}
				}
				if rng.Intn(3) == 0 {
					d, model = v, vm
				}
			case op == 2: // NewSame: fresh, zeroed, same width, not aliased
				fresh := d.NewSame(rng.Intn(70))
				if fresh.Width() != w || !sameAsModel(fresh, make([]int64, fresh.Len())) {
					return false
				}
				if rng.Intn(2) == 0 {
					d, model = fresh, make([]int64, fresh.Len())
				}
			case op == 3: // CopyFrom at an offset, clipped like copy
				src := New(w, rng.Intn(n+4))
				srcModel := make([]int64, src.Len())
				for i := range srcModel {
					v := value()
					src.Set(i, v)
					srcModel[i] = truncate(w, v)
				}
				off := rng.Intn(n + 1)
				d.CopyFrom(off, src)
				copy(model[off:], srcModel)
			case op == 4 && n > 0: // Gather out of d
				rids := make([]uint32, rng.Intn(40))
				want := make([]int64, len(rids))
				for i := range rids {
					rids[i] = uint32(rng.Intn(n))
					want[i] = model[rids[i]]
				}
				dst := New(w, len(rids)+rng.Intn(3))
				Gather(dst, d, rids)
				if !sameAsModel(dst.Slice(0, len(rids)), want) {
					return false
				}
			case op == 5 && n > 0: // Scatter into d
				src := New(w, rng.Intn(40))
				rids := make([]uint32, src.Len())
				for i := range rids {
					v := value()
					src.Set(i, v)
					rids[i] = uint32(rng.Intn(n))
					model[rids[i]] = truncate(w, v)
				}
				Scatter(d, src, rids)
			case op == 6: // the typed accessor shares storage with d
				if n > 0 {
					i, v := rng.Intn(n), value()
					switch w {
					case W1:
						d.I8()[i] = int8(v)
					case W2:
						d.I16()[i] = int16(v)
					case W4:
						d.I32()[i] = int32(v)
					case W8:
						d.I64()[i] = v
					}
					model[i] = truncate(w, v)
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestOfWrapsWithoutCopy(t *testing.T) {
	s := []int32{1, 2, 3}
	d := Of(s)
	if d.Width() != W4 || d.Len() != 3 {
		t.Fatalf("Of([]int32) = width %d len %d", d.Width(), d.Len())
	}
	d.Set(1, 20)
	if s[1] != 20 || &d.I32()[0] != &s[0] {
		t.Fatal("Of copied its argument")
	}
	for _, empty := range []Data{Of([]int8(nil)), Of([]int64{}), New(W2, 0)} {
		if empty.Len() != 0 || empty.SizeBytes() != 0 || empty.Slice(0, 0).Len() != 0 {
			t.Fatal("empty Data is not empty")
		}
		empty.CopyFrom(0, empty.NewSame(0))
		Gather(empty, empty, nil)
	}
}

func TestZeroData(t *testing.T) {
	var z Data
	if z.Len() != 0 || z.Width() != 0 || z.SizeBytes() != 0 || z.Width().Valid() {
		t.Fatalf("zero Data: len %d width %d size %d", z.Len(), z.Width(), z.SizeBytes())
	}
	if v := z.Slice(0, 0); v != z {
		t.Fatal("empty view of the zero Data is not the zero Data")
	}
	z.CopyFrom(0, z)
	mustPanic(t, "zero Data Get", func() { z.Get(0) })
	mustPanic(t, "zero Data Set", func() { z.Set(0, 1) })
	mustPanic(t, "zero Data NewSame", func() { z.NewSame(1) })
	mustPanic(t, "zero Data Slice", func() { z.Slice(0, 1) })
	mustPanic(t, "Gather from zero Data", func() { Gather(New(W8, 1), z, []uint32{0}) })
	mustPanic(t, "Scatter from zero Data", func() { Scatter(New(W8, 1), z, nil) })
	for name, acc := range accessors {
		mustPanic(t, "zero Data "+name, func() { acc(z) })
	}
}

var accessors = map[string]func(Data){
	"I8":  func(d Data) { d.I8() },
	"I16": func(d Data) { d.I16() },
	"I32": func(d Data) { d.I32() },
	"I64": func(d Data) { d.I64() },
}

// TestWidthMismatchPanicsNameBothWidths: every typed accessor accepts exactly
// its own width, CopyFrom, Gather and Scatter exactly equal widths, and the
// panic says which two widths met.
func TestWidthMismatchPanicsNameBothWidths(t *testing.T) {
	accWidth := map[string]Width{"I8": W1, "I16": W2, "I32": W4, "I64": W8}
	for _, w := range allWidths {
		d := New(w, 4)
		for name, acc := range accessors {
			if accWidth[name] == w {
				acc(d) // must not panic
				continue
			}
			msg := mustPanic(t, name+" on the wrong width", func() { acc(d) })
			if !strings.Contains(msg, fmt.Sprintf("%d-byte", accWidth[name])) || !strings.Contains(msg, fmt.Sprintf("%d-byte", w)) {
				t.Errorf("%s on %d-byte Data panicked with %q, want both widths named", name, w, msg)
			}
		}
		for _, sw := range allWidths {
			if sw == w {
				continue
			}
			src := New(sw, 2)
			msg := mustPanic(t, "CopyFrom across widths", func() { d.CopyFrom(0, src) })
			if !strings.Contains(msg, fmt.Sprintf("%d-byte", w)) || !strings.Contains(msg, fmt.Sprintf("%d-byte", sw)) {
				t.Errorf("CopyFrom(%d-byte <- %d-byte) panicked with %q, want both widths named", w, sw, msg)
			}
			mustPanic(t, "Gather across widths", func() { Gather(d, src, []uint32{0}) })
			mustPanic(t, "Scatter across widths", func() { Scatter(d, src, []uint32{0, 1}) })
		}
	}
}

func TestSliceBoundsPanic(t *testing.T) {
	d := New(W4, 5)
	for _, b := range [][2]int{{-1, 2}, {3, 2}, {0, 6}, {6, 6}} {
		mustPanic(t, "out-of-range Slice", func() { d.Slice(b[0], b[1]) })
	}
	v := d.Slice(1, 3)
	mustPanic(t, "Slice beyond a view's length", func() { v.Slice(0, 3) })
	mustPanic(t, "Get beyond a view's length", func() { v.Get(2) })
	mustPanic(t, "CopyFrom offset beyond length", func() { d.CopyFrom(6, New(W4, 0)) })
}

func TestSliceDoesNotAllocate(t *testing.T) {
	d := New(W4, 1024)
	var sink Data
	allocs := testing.AllocsPerRun(100, func() {
		for lo := 0; lo < 1024; lo += 256 {
			sink = d.Slice(lo, lo+256).Slice(1, 200)
		}
	})
	if allocs != 0 {
		t.Fatalf("Slice allocates %.0f times, want 0", allocs)
	}
	_ = sink
}

// TestWordsViewsShareStorageAndCheckBounds: WordsAs and OfWords lay elements
// of any width over a word buffer without copying or clearing it, up to
// exactly the bytes it has.
func TestWordsViewsShareStorageAndCheckBounds(t *testing.T) {
	words := []int64{-1, -1, -1}
	u := WordsAs[uint32](words, 6)
	if len(u) != 6 || u[5] != 0xFFFFFFFF {
		t.Fatalf("uint32 view %v", u)
	}
	u[2] = 7
	if words[1] != -1<<32|7 {
		t.Fatalf("write through the view did not reach the words: %#x", words[1])
	}
	type pair struct{ BuildRow, ProbeRow uint32 }
	if m := WordsAs[pair](words, 3)[:0]; cap(m) != 3 {
		t.Fatalf("pair view cap %d", cap(m))
	}
	for _, w := range []Width{W1, W2, W4, W8} {
		n := 24 / w.Bytes()
		d := OfWords(words, w, n)
		if d.Len() != n || d.Width() != w || d.Get(n-1) != -1 {
			t.Fatalf("width %d: %d elements, last %d", w, d.Len(), d.Get(n-1))
		}
		d.Set(0, 5)
		if words[0]&0xFF != 5 {
			t.Fatalf("width %d: Set did not reach the words", w)
		}
		words[0] = -1
		mustPanic(t, "OfWords past the words", func() { OfWords(words, w, n+1) })
	}
	mustPanic(t, "WordsAs past the words", func() { WordsAs[uint32](words, 7) })
	mustPanic(t, "negative length", func() { WordsAs[int8](words, -1) })
	mustPanic(t, "width 3", func() { OfWords(words, 3, 1) })
	if v := WordsAs[int64](nil, 0); len(v) != 0 {
		t.Fatal("empty view of no words")
	}
}
