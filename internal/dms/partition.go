package dms

import (
	"fmt"
	"sort"

	"rapid/internal/coltypes"
	"rapid/internal/hashcrc"
)

// Strategy selects one of the DMS hardware partitioning modes (paper §5.4).
type Strategy int

const (
	// Radix inspects the low bits of the key column directly.
	Radix Strategy = iota
	// Hash applies the CRC32 engine to 1..4 key columns and inspects the
	// radix bits of the hash.
	Hash
	// Range matches each key against up to 32 pre-programmed range bounds.
	Range
	// RoundRobin cycles targets whatever the key, so a frequent value ends
	// up evenly on every core (the skew mitigation of §5.4).
	RoundRobin
)

func (s Strategy) String() string {
	switch s {
	case Radix:
		return "radix"
	case Hash:
		return "hash"
	case Range:
		return "range"
	case RoundRobin:
		return "round-robin"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// MaxFanout is the hardware fan-out limit: one target per dpCore.
const MaxFanout = 32

// PartitionSpec programs the DMS partitioning engines.
type PartitionSpec struct {
	Strategy Strategy
	// Fanout is the number of target partitions (1..32). Radix and Hash
	// require a power of two.
	Fanout int
	// KeyCols are indices of the key columns (1..4 for Hash; exactly 1 for
	// Radix and Range; ignored by RoundRobin).
	KeyCols []int
	// Bounds are the Range strategy's pre-programmed upper bounds: row goes
	// to partition p where p is the first bound with key < Bounds[p], and
	// to the last partition otherwise. len(Bounds) == Fanout-1.
	Bounds []int64
}

// Validate checks the spec against the hardware limits.
func (s PartitionSpec) Validate(numCols int) error {
	if s.Fanout < 1 || s.Fanout > MaxFanout {
		return fmt.Errorf("dms: fan-out %d out of hardware range [1,%d]", s.Fanout, MaxFanout)
	}
	switch s.Strategy {
	case Radix:
		if len(s.KeyCols) != 1 {
			return fmt.Errorf("dms: radix partitioning takes exactly 1 key column")
		}
		if s.Fanout&(s.Fanout-1) != 0 {
			return fmt.Errorf("dms: radix fan-out %d must be a power of two", s.Fanout)
		}
	case Hash:
		if len(s.KeyCols) < 1 || len(s.KeyCols) > 4 {
			return fmt.Errorf("dms: hash partitioning takes 1..4 key columns, got %d", len(s.KeyCols))
		}
		if s.Fanout&(s.Fanout-1) != 0 {
			return fmt.Errorf("dms: hash fan-out %d must be a power of two", s.Fanout)
		}
	case Range:
		if len(s.KeyCols) != 1 {
			return fmt.Errorf("dms: range partitioning takes exactly 1 key column")
		}
		if len(s.Bounds) != s.Fanout-1 {
			return fmt.Errorf("dms: range partitioning needs %d bounds, got %d", s.Fanout-1, len(s.Bounds))
		}
		if !sort.SliceIsSorted(s.Bounds, func(i, j int) bool { return s.Bounds[i] < s.Bounds[j] }) {
			return fmt.Errorf("dms: range bounds must be sorted")
		}
	case RoundRobin:
	default:
		return fmt.Errorf("dms: unknown strategy %d", s.Strategy)
	}
	for _, k := range s.KeyCols {
		if k < 0 || k >= numCols {
			return fmt.Errorf("dms: key column %d out of range (have %d columns)", k, numCols)
		}
	}
	return nil
}

// PartitionIDs computes the target partition of every row (the CID vector
// the hardware stages in CID memory) without moving data.
func (e *Engine) PartitionIDs(cols []coltypes.Data, spec PartitionSpec) ([]uint8, Timing, error) {
	if err := spec.Validate(len(cols)); err != nil {
		return nil, Timing{}, err
	}
	if len(cols) == 0 {
		return nil, Timing{}, nil
	}
	n := cols[0].Len()
	ids := make([]uint8, n)
	switch spec.Strategy {
	case Radix:
		key := cols[spec.KeyCols[0]]
		mask := int64(spec.Fanout - 1)
		for i := 0; i < n; i++ {
			ids[i] = uint8(key.Get(i) & mask)
		}
	case Hash:
		mask := uint32(spec.Fanout - 1)
		hv := e.hashRows(cols, spec.KeyCols)
		for i, h := range hv {
			ids[i] = uint8(h & mask)
		}
	case Range:
		key := cols[spec.KeyCols[0]]
		for i := 0; i < n; i++ {
			ids[i] = uint8(rangeBucket(spec.Bounds, key.Get(i)))
		}
	case RoundRobin:
		for i := range ids {
			ids[i] = uint8(i % spec.Fanout)
		}
	}
	t := e.model.partitionTime(n, len(cols), widthOf(cols), spec.Strategy, len(spec.KeyCols))
	e.account(t)
	return ids, t, nil
}

// HashVector computes the CRC32 hash of the key columns for every row — the
// "vector of CRC32 hash values computed in hardware" that feeds the software
// partitioning pipeline of Listing 2.
func (e *Engine) HashVector(cols []coltypes.Data, keyCols []int) ([]uint32, Timing) {
	hv := e.hashRows(cols, keyCols)
	n := len(hv)
	var w coltypes.Width = coltypes.W4
	if len(cols) > 0 {
		w = widthOf(cols)
	}
	t := e.model.partitionTime(n, len(keyCols), w, Hash, len(keyCols))
	e.account(t)
	return hv, t
}

func (e *Engine) hashRows(cols []coltypes.Data, keyCols []int) []uint32 {
	if len(cols) == 0 {
		return nil
	}
	n := cols[0].Len()
	hv := make([]uint32, n)
	for i := 0; i < n; i++ {
		acc := hashcrc.Seed
		for _, k := range keyCols {
			acc = hashcrc.Hash64(acc, uint64(cols[k].Get(i)))
		}
		hv[i] = hashcrc.Finalize(acc)
	}
	return hv
}

// rangeBucket returns the index of the first bound greater than v, i.e. the
// partition whose half-open range contains v; v beyond the last bound lands
// in the final partition.
func rangeBucket(bounds []int64, v int64) int {
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v < bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// widthOf returns the dominant (first) column width for the timing model.
func widthOf(cols []coltypes.Data) coltypes.Width {
	if len(cols) == 0 {
		return coltypes.W4
	}
	return cols[0].Width()
}
