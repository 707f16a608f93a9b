//go:build race

package mem

import (
	"testing"

	"rapid/internal/coltypes"
)

// TestReturnPoisonsInRaceBuilds: what a holder reads after Return, and what
// the next holder finds, is the poison pattern — over the whole buffer, not
// just the part that was asked for.
func TestReturnPoisonsInRaceBuilds(t *testing.T) {
	for _, s := range []*Slab{nil, NewSlab(1<<20, nil)} {
		a := s.Lease(100)
		full := a[:cap(a)]
		for i := range full {
			full[i] = int64(i)
		}
		s.Return(a)
		for i, v := range full {
			if v != 0x5A5A5A5A5A5A5A5A {
				t.Fatalf("word %d of %d survived Return: %#x", i, len(full), v)
			}
		}
	}
}

// TestPoolTakesArePoisonedInRaceBuilds: every data take, at every width,
// reads the poison pattern — over a freshly grown region, and over storage an
// earlier take wrote and a ResetTile, Release or Reset handed back.
func TestPoolTakesArePoisonedInRaceBuilds(t *testing.T) {
	const poisonWord = 0x5A5A5A5A5A5A5A5A
	p := NewTilePool()
	takeAll := func(when string) {
		t.Helper()
		const n = 37
		i64 := p.I64(n)
		for i, v := range i64 {
			if v != poisonWord {
				t.Fatalf("%s: I64 element %d = %#x", when, i, v)
			}
			i64[i] = int64(i) // dirty it for the next round
		}
		u32 := p.U32(n)
		for i, v := range u32 {
			if v != poisonWord&0xFFFFFFFF {
				t.Fatalf("%s: U32 element %d = %#x", when, i, v)
			}
			u32[i] = uint32(i)
		}
		for _, w := range []coltypes.Width{coltypes.W1, coltypes.W2, coltypes.W4, coltypes.W8} {
			want := coltypes.OfWords([]int64{poisonWord}, w, 1).Get(0)
			d := p.Data(w, n)
			for i := 0; i < n; i++ {
				if d.Get(i) != want {
					t.Fatalf("%s: width-%d Data element %d = %#x, want %#x", when, w, i, d.Get(i), want)
				}
				d.Set(i, int64(i))
			}
		}
	}
	takeAll("fresh region")
	p.ResetTile()
	takeAll("after markless ResetTile")
	p.Mark()
	takeAll("inside a Mark")
	p.ResetTile()
	takeAll("after ResetTile to the Mark")
	p.Release()
	takeAll("after Release")
	p.Reset()
	takeAll("after Reset")
}
