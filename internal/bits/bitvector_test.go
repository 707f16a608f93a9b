package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorSetTestClear(t *testing.T) {
	v := NewVector(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d, want 130", v.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Test(i) {
			t.Fatalf("bit %d set in fresh vector", i)
		}
		v.Set(i)
		if !v.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := v.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
}

func TestVectorSetAllMasksTail(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128} {
		v := NewVector(n)
		v.SetAll()
		if got := v.Count(); got != n {
			t.Fatalf("n=%d: Count after SetAll = %d", n, got)
		}
		v.Not(v) // complement of all-ones must be empty
		if got := v.Count(); got != 0 {
			t.Fatalf("n=%d: Count after Not(all-ones) = %d", n, got)
		}
	}
}

func TestVectorBooleanOps(t *testing.T) {
	const n = 200
	a, b := NewVector(n), NewVector(n)
	for i := 0; i < n; i += 2 {
		a.Set(i)
	}
	for i := 0; i < n; i += 3 {
		b.Set(i)
	}
	or, andNot := NewVector(n), NewVector(n)
	or.Or(a, b)
	andNot.AndNot(a, b)
	for i := 0; i < n; i++ {
		ea, eb := i%2 == 0, i%3 == 0
		if or.Test(i) != (ea || eb) {
			t.Fatalf("Or bit %d wrong", i)
		}
		if andNot.Test(i) != (ea && !eb) {
			t.Fatalf("AndNot bit %d wrong", i)
		}
	}
}

func TestVectorNextSet(t *testing.T) {
	v := NewVector(300)
	set := []int{5, 63, 64, 199, 299}
	for _, i := range set {
		v.Set(i)
	}
	got := []int{}
	for i := v.NextSet(0); i >= 0; i = v.NextSet(i + 1) {
		got = append(got, i)
	}
	if len(got) != len(set) {
		t.Fatalf("NextSet walk found %v, want %v", got, set)
	}
	for i := range set {
		if got[i] != set[i] {
			t.Fatalf("NextSet walk found %v, want %v", got, set)
		}
	}
	if v.NextSet(300) != -1 {
		t.Fatal("NextSet past end should be -1")
	}
}

func TestVectorForEachMatchesRIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := NewVector(777)
	want := []uint32{}
	for i := 0; i < 777; i++ {
		if rng.Intn(4) == 0 {
			v.Set(i)
			want = append(want, uint32(i))
		}
	}
	got := v.ToRIDs(nil)
	if len(got) != len(want) {
		t.Fatalf("ToRIDs len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ToRIDs[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	rt := NewVector(777)
	rt.FromRIDs(got)
	for i := 0; i < 777; i++ {
		if rt.Test(i) != v.Test(i) {
			t.Fatalf("round-trip bit %d differs", i)
		}
	}
}

// Property: Count equals the number of indices reported by ForEach, and
// De Morgan holds for random vectors.
func TestVectorProperties(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%500 + 1
		rng := rand.New(rand.NewSource(seed))
		a, b := NewVector(n), NewVector(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Set(i)
			}
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		count := 0
		a.ForEach(func(int) { count++ })
		if count != a.Count() {
			return false
		}
		// De Morgan: NOT(a AND NOT b) == NOT a OR b
		lhs, rhs, na := NewVector(n), NewVector(n), NewVector(n)
		lhs.AndNot(a, b)
		lhs.Not(lhs)
		na.Not(a)
		rhs.Or(na, b)
		for i := 0; i < n; i++ {
			if lhs.Test(i) != rhs.Test(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorString(t *testing.T) {
	v := NewVector(4)
	v.Set(1)
	v.Set(3)
	if got := v.String(); got != "0101" {
		t.Fatalf("String = %q, want 0101", got)
	}
}

func TestVectorSizeBytes(t *testing.T) {
	if got := VectorSizeBytes(64); got != 8 {
		t.Fatalf("VectorSizeBytes(64) = %d", got)
	}
	if got := VectorSizeBytes(65); got != 16 {
		t.Fatalf("VectorSizeBytes(65) = %d", got)
	}
}

// TestVectorOver: a vector laid over dirty caller words comes back cleared,
// n bits long, and stores its bits in those words.
func TestVectorOver(t *testing.T) {
	words := []uint64{^uint64(0), ^uint64(0), 7}
	var v Vector
	v.Over(words, 70)
	if v.Len() != 70 || v.Count() != 0 || len(v.Words()) != 2 {
		t.Fatalf("Over(70): len %d count %d words %d", v.Len(), v.Count(), len(v.Words()))
	}
	v.Set(65)
	if words[1] != 2 || words[2] != 7 {
		t.Fatalf("Over does not share the caller's words: %v", words)
	}
	mustPanic(t, func() { v.Over(words, 3*64+1) })
}

func TestVectorPanics(t *testing.T) {
	v := NewVector(10)
	mustPanic(t, func() { v.Test(10) })
	mustPanic(t, func() { v.Set(-1) })
	mustPanic(t, func() { v.Or(NewVector(5), NewVector(10)) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}
