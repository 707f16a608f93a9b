package encoding

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rapid/internal/coltypes"
)

func TestParseDecimal(t *testing.T) {
	cases := []struct {
		in       string
		unscaled int64
		scale    int8
	}{
		{"123", 123, 0},
		{"-4.50", -45, 1}, // trailing zero trimmed
		{".25", 25, 2},
		{"0", 0, 0},
		{"-0.001", -1, 3},
		{"+7.1", 71, 1},
		{"100.00", 100, 0},
	}
	for _, c := range cases {
		d, err := ParseDecimal(c.in)
		if err != nil {
			t.Fatalf("ParseDecimal(%q): %v", c.in, err)
		}
		if d.Unscaled != c.unscaled || d.Scale != c.scale {
			t.Fatalf("ParseDecimal(%q) = {%d,%d}, want {%d,%d}", c.in, d.Unscaled, d.Scale, c.unscaled, c.scale)
		}
	}
	for _, bad := range []string{"", ".", "abc", "1.2.3", "1e5"} {
		if _, err := ParseDecimal(bad); err == nil {
			t.Fatalf("ParseDecimal(%q) should fail", bad)
		}
	}
}

func TestDecimalString(t *testing.T) {
	cases := map[string]Decimal{
		"123":    {123, 0},
		"1.23":   {123, 2},
		"-0.05":  {-5, 2},
		"0.001":  {1, 3},
		"-12.40": {-1240, 2},
	}
	for want, d := range cases {
		if got := d.String(); got != want {
			t.Errorf("(%d,%d).String() = %q, want %q", d.Unscaled, d.Scale, got, want)
		}
	}
}

func TestRescale(t *testing.T) {
	d := Decimal{12345, 2} // 123.45
	if v, ok := d.Rescale(4); !ok || v != 1234500 {
		t.Fatalf("up-rescale: %d %v", v, ok)
	}
	if v, ok := d.Rescale(2); !ok || v != 12345 {
		t.Fatalf("same-scale: %d %v", v, ok)
	}
	if _, ok := d.Rescale(1); ok {
		t.Fatal("down-rescale losing digits should fail")
	}
	if v, ok := (Decimal{12300, 2}).Rescale(0); !ok || v != 123 {
		t.Fatalf("down-rescale of trailing zeros: %d %v", v, ok)
	}
	// Overflow on the way up.
	big := Decimal{1 << 60, 0}
	if _, ok := big.Rescale(5); ok {
		t.Fatal("overflowing rescale should fail")
	}
}

// The DSB encoding as stored: a column has one fixed scale, a value is its
// unscaled integer at that scale, and decoding is the integer read back at
// the same scale.
func TestEncodeDSBRoundTrip(t *testing.T) {
	const scale = 2
	vals := []Decimal{
		MustParseDecimal("1.5"),
		MustParseDecimal("-2.25"),
		MustParseDecimal("100"),
		MustParseDecimal("0.01"),
	}
	for i, want := range []int64{150, -225, 10000, 1} {
		u, ok := vals[i].Rescale(scale)
		if !ok || u != want {
			t.Fatalf("%s at scale %d = %d (ok=%v), want %d", vals[i], scale, u, ok, want)
		}
		if got := (Decimal{Unscaled: u, Scale: scale}); got.Cmp(vals[i]) != 0 {
			t.Fatalf("decoded %s, want %s", got, vals[i])
		}
	}
}

func TestDSBQuickRoundTrip(t *testing.T) {
	f := func(raw int64, scaleRaw, upRaw uint8) bool {
		scale := int8(scaleRaw % 6)
		col := scale + int8(upRaw%6) // the column's scale is at least the value's
		d := Decimal{Unscaled: raw % 1_000_000, Scale: scale}
		u, ok := d.Rescale(col)
		return ok && (Decimal{Unscaled: u, Scale: col}).Cmp(d) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDictBasics(t *testing.T) {
	d := NewDict()
	a := d.Add("apple")
	b := d.Add("banana")
	if d.Add("apple") != a {
		t.Fatal("re-Add must return existing code")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.Code("banana") != b || d.Code("cherry") != -1 {
		t.Fatal("Code lookup wrong")
	}
	if d.Value(a) != "apple" {
		t.Fatal("Value lookup wrong")
	}
}

func TestDictRangeAndPrefix(t *testing.T) {
	d := NewDict()
	words := []string{"delta", "alpha", "charlie", "bravo", "alphabet", "echo"}
	for _, w := range words {
		d.Add(w)
	}
	// Range [alpha, charlie] inclusive.
	cs := d.RangeCodes("alpha", "charlie", true, true)
	wantIn := []string{"alpha", "alphabet", "bravo", "charlie"}
	if cs.Count() != len(wantIn) {
		t.Fatalf("range count = %d, want %d", cs.Count(), len(wantIn))
	}
	for _, w := range wantIn {
		if !cs.Bitmap().Test(int(d.Code(w))) {
			t.Fatalf("%q missing from range", w)
		}
	}
	if cs.Bitmap().Test(int(d.Code("delta"))) {
		t.Fatal("delta should be out of range")
	}
	// Exclusive bounds.
	ex := d.RangeCodes("alpha", "charlie", false, false)
	if ex.Bitmap().Test(int(d.Code("alpha"))) || ex.Bitmap().Test(int(d.Code("charlie"))) {
		t.Fatal("exclusive bounds included endpoints")
	}
	if !ex.Bitmap().Test(int(d.Code("bravo"))) {
		t.Fatal("bravo missing from exclusive range")
	}
	// Prefix.
	p := d.PrefixCodes("alph")
	if p.Count() != 2 || !p.Bitmap().Test(int(d.Code("alpha"))) || !p.Bitmap().Test(int(d.Code("alphabet"))) {
		t.Fatal("prefix lookup wrong")
	}
	// Updates after a lookup must be visible to the next lookup.
	d.Add("alphorn")
	p2 := d.PrefixCodes("alph")
	if p2.Count() != 3 {
		t.Fatalf("prefix after update = %d, want 3", p2.Count())
	}
	// Contains (substring).
	sub := d.ContainsCodes("lph")
	if sub.Count() != 3 {
		t.Fatalf("substring count = %d", sub.Count())
	}
}

func TestDictCompareCodes(t *testing.T) {
	d := NewDict()
	for _, w := range []string{"a", "b", "c", "d"} {
		d.Add(w)
	}
	cmp := func(op, val string) *CodeSet {
		t.Helper()
		cs, err := d.CompareCodes(op, val)
		if err != nil {
			t.Fatalf("CompareCodes(%q, %q): %v", op, val, err)
		}
		return cs
	}
	if cs := cmp("<", "c"); cs.Count() != 2 {
		t.Fatalf("< c: %d", cs.Count())
	}
	if cs := cmp("<=", "c"); cs.Count() != 3 {
		t.Fatalf("<= c: %d", cs.Count())
	}
	if cs := cmp(">", "a"); cs.Count() != 3 {
		t.Fatalf("> a: %d", cs.Count())
	}
	if cs := cmp(">=", "b"); cs.Count() != 3 {
		t.Fatalf(">= b: %d", cs.Count())
	}
	if _, err := d.CompareCodes("~", "c"); err == nil {
		t.Fatal("unsupported operator must be an error, not a panic")
	}
}

func TestDictSortRank(t *testing.T) {
	d := NewDict()
	d.Add("zebra") // code 0
	d.Add("ant")   // code 1
	d.Add("mole")  // code 2
	rank := d.SortRank()
	if rank[1] != 0 || rank[2] != 1 || rank[0] != 2 {
		t.Fatalf("ranks = %v", rank)
	}
}

func TestDictCodeSetOutOfRange(t *testing.T) {
	d := NewDict()
	d.Add("x")
	d.Add("y")
	// Kernels probe the bitmap with column codes unchecked: it must span
	// every code of the dictionary, matched or not.
	if cs := d.PrefixCodes("x"); cs.Bitmap().Len() != d.Len() || cs.Count() != 1 {
		t.Fatalf("bitmap of %d bits (%d set) over a %d-code dictionary", cs.Bitmap().Len(), cs.Count(), d.Len())
	}
}

func TestRLERoundTrip(t *testing.T) {
	d := coltypes.FromInt64s(coltypes.W4, []int64{5, 5, 5, 7, 7, 1, 1, 1, 1, 9})
	r := EncodeRLE(d)
	if len(r.Values) != 4 {
		t.Fatalf("Runs = %d, want 4", len(r.Values))
	}
	dec := r.Decode()
	if dec.Len() != d.Len() {
		t.Fatalf("decoded len = %d", dec.Len())
	}
	for i := 0; i < d.Len(); i++ {
		if dec.Get(i) != d.Get(i) {
			t.Fatalf("row %d: %d != %d", i, dec.Get(i), d.Get(i))
		}
	}
	if r.SizeBytes() >= d.SizeBytes() {
		t.Fatalf("encoded %d bytes, decoded %d: expected compression", r.SizeBytes(), d.SizeBytes())
	}
}

func TestRLEEmptyAndSingle(t *testing.T) {
	empty := EncodeRLE(coltypes.New(coltypes.W8, 0))
	if len(empty.Values) != 0 || empty.Decode().Len() != 0 {
		t.Fatal("empty RLE wrong")
	}
	one := EncodeRLE(coltypes.FromInt64s(coltypes.W1, []int64{42}))
	if len(one.Values) != 1 || one.Decode().Get(0) != 42 {
		t.Fatal("single RLE wrong")
	}
}

func TestWorthRLE(t *testing.T) {
	constant := coltypes.New(coltypes.W8, 1000) // all zero: compresses
	if _, ok := WorthRLE(constant); !ok {
		t.Fatal("constant column should be worth RLE")
	}
	rng := rand.New(rand.NewSource(1))
	random := coltypes.New(coltypes.W4, 1000)
	for i := 0; i < 1000; i++ {
		random.Set(i, int64(rng.Int31()))
	}
	if _, ok := WorthRLE(random); ok {
		t.Fatal("random column should not be worth RLE")
	}
}

// Property: RLE round-trips arbitrary vectors.
func TestRLEQuick(t *testing.T) {
	f := func(vals []int16) bool {
		d := coltypes.New(coltypes.W2, len(vals))
		for i, v := range vals {
			d.Set(i, int64(v%8)) // small domain creates runs
		}
		dec := EncodeRLE(d).Decode()
		for i := range vals {
			if dec.Get(i) != d.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDictConcurrentLookups pins the concurrency contract of the lazy sorted
// view: range, prefix and rank lookups on one shared dictionary must be safe
// from concurrent queries (run with -race). The lazy rebuild used to race
// when two queries both triggered the first sorted lookup.
func TestDictConcurrentLookups(t *testing.T) {
	d := NewDict()
	words := []string{"apple", "apricot", "banana", "cherry", "date", "fig", "grape", "kiwi"}
	for _, w := range words {
		d.Add(w)
	}
	const goroutines = 8
	done := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				if n := d.PrefixCodes("ap").Count(); n != 2 {
					t.Errorf("goroutine %d: PrefixCodes(ap) = %d codes, want 2", g, n)
					return
				}
				if n := d.RangeCodes("banana", "fig", true, true).Count(); n != 4 {
					t.Errorf("goroutine %d: RangeCodes = %d codes, want 4", g, n)
					return
				}
				if rank := d.SortRank(); len(rank) != len(words) {
					t.Errorf("goroutine %d: SortRank len %d, want %d", g, len(rank), len(words))
					return
				}
			}
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
}

// TestDictAddInvalidatesSortedView checks the lazy view is rebuilt after new
// strings are interned, and that a previously returned snapshot is not
// mutated in place.
func TestDictAddInvalidatesSortedView(t *testing.T) {
	d := NewDict()
	d.Add("b")
	d.Add("d")
	before := d.SortRank()
	d.Add("a")
	after := d.SortRank()
	if len(after) != 3 {
		t.Fatalf("rank after Add has %d entries, want 3", len(after))
	}
	if got := d.PrefixCodes("a").Count(); got != 1 {
		t.Fatalf("PrefixCodes(a) after Add = %d, want 1", got)
	}
	if len(before) != 2 {
		t.Fatalf("earlier snapshot mutated: len %d, want 2", len(before))
	}
}
