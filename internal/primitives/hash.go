package primitives

import (
	"fmt"

	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/hashcrc"
)

// Hash primitives: the dpCore exposes CRC32 as a single-cycle instruction
// (§2.1), and the same CRC32 is computed by the DMS hash engine, so hash
// vectors are interchangeable between hardware and software partitioning.

// HashColumn folds one key column into the hash accumulator vector. Pass
// first=true for the first key (accumulators are seeded), false to chain
// further keys. acc must have d.Len() elements (or be nil for first=true).
func HashColumn(core *dpu.Core, d coltypes.Data, acc []uint32, first bool) []uint32 {
	n := d.Len()
	if first {
		if cap(acc) < n {
			acc = make([]uint32, n)
		}
		acc = acc[:n]
		for i := range acc {
			acc[i] = hashcrc.Seed
		}
	} else if len(acc) != n {
		panic(fmt.Sprintf("primitives: hash accumulator length %d != %d", len(acc), n))
	}
	switch d.Width() {
	case coltypes.W1:
		hashInto(acc, d.I8())
	case coltypes.W2:
		hashInto(acc, d.I16())
	case coltypes.W4:
		hashInto(acc, d.I32())
	default:
		hashInto(acc, d.I64())
	}
	charge(core, costHashPerRowPerKey*float64(n))
	return acc
}

func hashInto[T coltypes.Elem](acc []uint32, in []T) {
	for i, v := range in {
		acc[i] = hashcrc.Hash64(acc[i], uint64(int64(v)))
	}
}

// HashFinalize applies the final mix to the accumulator vector.
func HashFinalize(core *dpu.Core, acc []uint32) {
	for i, h := range acc {
		acc[i] = hashcrc.Finalize(h)
	}
	charge(core, costArithPerRow*float64(len(acc)))
}

// HashColumns hashes a set of key columns to finalized 32-bit values —
// exactly what the DMS hash engine would deliver in CRC memory.
func HashColumns(core *dpu.Core, cols []coltypes.Data, acc []uint32) []uint32 {
	for k, c := range cols {
		acc = HashColumn(core, c, acc, k == 0)
	}
	HashFinalize(core, acc)
	return acc
}
