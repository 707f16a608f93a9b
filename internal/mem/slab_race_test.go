//go:build race

package mem

import "testing"

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
