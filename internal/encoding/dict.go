package encoding

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"rapid/internal/bits"
)

// Dict is RAPID's string dictionary (paper §4.2): fixed- and variable-length
// strings are stored once and columns hold 32-bit codes. The dictionary
// supports updates (new strings get fresh codes without disturbing existing
// ones) and range lookups for evaluating prefix and range predicates: a
// string predicate compiles to a code-set membership test that the integer
// filter primitives evaluate.
type Dict struct {
	byCode []string         // code -> string
	byStr  map[string]int32 // string -> code

	// The sorted view is rebuilt lazily on first range/prefix lookup, which
	// happens at query time — and the dictionary of a loaded column is shared
	// by every concurrent query — so the rebuild is guarded.
	mu     sync.Mutex
	sorted []int32 // codes in string order; immutable once built
	dirty  bool
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{byStr: make(map[string]int32)}
}

// Add interns s and returns its code; existing strings keep their code
// (update support without rewriting encoded columns).
func (d *Dict) Add(s string) int32 {
	if c, ok := d.byStr[s]; ok {
		return c
	}
	c := int32(len(d.byCode))
	d.byCode = append(d.byCode, s)
	d.byStr[s] = c
	d.mu.Lock()
	d.dirty = true
	d.mu.Unlock()
	return c
}

// Code returns the code of s, or -1 when absent.
func (d *Dict) Code(s string) int32 {
	if c, ok := d.byStr[s]; ok {
		return c
	}
	return -1
}

// Value returns the string for a code.
func (d *Dict) Value(c int32) string {
	if c < 0 || int(c) >= len(d.byCode) {
		panic(fmt.Sprintf("encoding: dict code %d out of range", c))
	}
	return d.byCode[c]
}

// Len returns the number of distinct strings.
func (d *Dict) Len() int { return len(d.byCode) }

// sortedCodes returns the codes in string order, rebuilding the view under
// the lock if new strings were interned since. Rebuilds allocate a fresh
// slice, so the returned snapshot is immutable and callers iterate it without
// holding the lock.
func (d *Dict) sortedCodes() []int32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dirty || d.sorted == nil {
		sorted := make([]int32, len(d.byCode))
		for i := range sorted {
			sorted[i] = int32(i)
		}
		sort.Slice(sorted, func(i, j int) bool {
			return d.byCode[sorted[i]] < d.byCode[sorted[j]]
		})
		d.sorted = sorted
		d.dirty = false
	}
	return d.sorted
}

// CodeSet is the result of a dictionary range lookup: a bitmap over codes.
// Filter primitives test membership with single-cycle bit probes.
type CodeSet struct {
	bm *bits.Vector
}

// Count returns the number of codes in the set.
func (cs *CodeSet) Count() int { return cs.bm.Count() }

// Bitmap exposes the underlying bitmap (for primitive kernels).
func (cs *CodeSet) Bitmap() *bits.Vector { return cs.bm }

func (d *Dict) emptySet() *CodeSet {
	n := len(d.byCode)
	if n == 0 {
		n = 1
	}
	return &CodeSet{bm: bits.NewVector(n)}
}

// RangeCodes returns the codes of all strings in the given range.
// Empty bounds mean unbounded on that side.
func (d *Dict) RangeCodes(lo, hi string, loIncl, hiIncl bool) *CodeSet {
	sorted := d.sortedCodes()
	cs := d.emptySet()
	start := 0
	if lo != "" {
		start = sort.Search(len(sorted), func(i int) bool {
			s := d.byCode[sorted[i]]
			if loIncl {
				return s >= lo
			}
			return s > lo
		})
	}
	for i := start; i < len(sorted); i++ {
		s := d.byCode[sorted[i]]
		if hi != "" {
			if hiIncl && s > hi {
				break
			}
			if !hiIncl && s >= hi {
				break
			}
		}
		cs.bm.Set(int(sorted[i]))
	}
	return cs
}

// PrefixCodes returns the codes of all strings with the given prefix — the
// LIKE 'p%' lookup of §4.2.
func (d *Dict) PrefixCodes(prefix string) *CodeSet {
	sorted := d.sortedCodes()
	cs := d.emptySet()
	start := sort.Search(len(sorted), func(i int) bool {
		return d.byCode[sorted[i]] >= prefix
	})
	for i := start; i < len(sorted); i++ {
		s := d.byCode[sorted[i]]
		if !strings.HasPrefix(s, prefix) {
			break
		}
		cs.bm.Set(int(sorted[i]))
	}
	return cs
}

// ContainsCodes returns codes of strings containing the substring — used by
// LIKE '%x%' predicates. This is a full dictionary scan, but the dictionary
// is small relative to the column (the point of dictionary encoding).
func (d *Dict) ContainsCodes(sub string) *CodeSet {
	return d.MatchCodes(func(s string) bool { return strings.Contains(s, sub) })
}

// SuffixCodes returns codes of strings ending in suffix (LIKE '%x').
func (d *Dict) SuffixCodes(suffix string) *CodeSet {
	return d.MatchCodes(func(s string) bool { return strings.HasSuffix(s, suffix) })
}

// MatchCodes returns the codes of all strings satisfying an arbitrary
// predicate (full dictionary scan).
func (d *Dict) MatchCodes(match func(string) bool) *CodeSet {
	cs := d.emptySet()
	for c, s := range d.byCode {
		if match(s) {
			cs.bm.Set(c)
		}
	}
	return cs
}

// CompareCodes returns the set of codes whose strings satisfy `s op val`
// for op in <, <=, >, >=. An unsupported operator is a query error (the
// generic comparison path upstream should have handled =/<>), not a panic:
// a malformed plan must fail the query, not crash the worker.
func (d *Dict) CompareCodes(op string, val string) (*CodeSet, error) {
	switch op {
	case "<":
		return d.RangeCodes("", val, true, false), nil
	case "<=":
		return d.RangeCodes("", val, true, true), nil
	case ">":
		return d.RangeCodes(val, "", false, true), nil
	case ">=":
		return d.RangeCodes(val, "", true, true), nil
	}
	return nil, fmt.Errorf("encoding: unsupported dict comparison %q", op)
}

// SortRank returns, for each code, its rank in string order. ORDER BY on a
// dictionary column sorts by rank rather than decoding strings.
func (d *Dict) SortRank() []int32 {
	sorted := d.sortedCodes()
	rank := make([]int32, len(d.byCode))
	for r, c := range sorted {
		rank[c] = int32(r)
	}
	return rank
}
