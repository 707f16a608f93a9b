package dms

import (
	"fmt"

	"rapid/internal/coltypes"
)

// Strategy selects one of the DMS hardware partitioning modes (paper §5.4).
// Operators partition by Hash only; all four are priced for Fig 8.
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

// PartitionTiming bills a hardware partitioning pass over cols as spec
// programs it: the CID vector the hardware stages in CID memory for every
// row.
func (e *Engine) PartitionTiming(cols []coltypes.Data, spec PartitionSpec) (Timing, error) {
	if err := spec.Validate(len(cols)); err != nil {
		return Timing{}, err
	}
	if len(cols) == 0 {
		return Timing{}, nil
	}
	t := e.model.partitionTime(cols[0].Len(), len(cols), widthOf(cols), spec.Strategy, len(spec.KeyCols))
	e.account(t)
	return t, nil
}

// HashTiming bills the DMS hash engine's CRC32 pass over the key columns of
// n rows of columns as wide as cols — the "vector of CRC32 hash values
// computed in hardware" that feeds the software partitioning pipeline of
// Listing 2. The vector itself is the one primitives.HashColumn computes, in
// either mode.
func (e *Engine) HashTiming(n int, cols []coltypes.Data, keyCols []int) Timing {
	t := e.model.partitionTime(n, len(keyCols), widthOf(cols), Hash, len(keyCols))
	e.account(t)
	return t
}

// widthOf returns the dominant (first) column width for the timing model.
func widthOf(cols []coltypes.Data) coltypes.Width {
	if len(cols) == 0 {
		return coltypes.W4
	}
	return cols[0].Width()
}
