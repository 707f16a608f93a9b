package primitives

import (
	"rapid/internal/bits"
	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/hashcrc"
)

// The bit-vector join filter is a one-hash Bloom filter over a join's build
// keys. Its key hash is the join's own: CRC32 over the key columns, finalized
// (HashColumns), the value the DMS hash engine delivers when it partitions
// the build side. The low partBits bits of that hash are the build row's
// join partition; they choose a segment of 2^(logBits-partBits) bits and the
// next bits a bit inside it (JoinFilterBit), so each build partition fills
// its own words of the vector and the fill needs no merge. A probe row whose
// bit is clear has no build row of its key.

// JoinFilterBit is the bit of key hash h in a 2^logBits-bit filter whose build
// side is split into 2^partBits partitions by h's low bits.
func JoinFilterBit(h uint32, partBits, logBits uint) uint32 {
	seg := logBits - partBits
	return (h&(1<<partBits-1))<<seg | h>>partBits&(1<<seg-1)
}

// FillJoinFilter sets the bit of every finalized key hash in hv, the hashes
// of one build partition, in the filter's words.
func FillJoinFilter(core *dpu.Core, hv []uint32, words []uint64, partBits, logBits uint) {
	for _, h := range hv {
		b := JoinFilterBit(h, partBits, logBits)
		words[b>>6] |= 1 << (b & 63)
	}
	charge(core, JoinFilterFillCost(len(hv)))
}

// FilterJoinBV tests the rows of inBV (nil = all) against the filter: a row
// passes when the bit of its key hash is set. keys are the probe key columns
// (1 or 2), hashed as the build side's were. Like the other filter kernels it
// builds one output word per 64 rows; the bill is per candidate row.
func FilterJoinBV(core *dpu.Core, keys []coltypes.Data, words []uint64, partBits, logBits uint, inBV, out *bits.Vector) int {
	var acc [64]uint32
	hits, candidates := wordLoop(keys[0].Len(), inBV, out, func(lo, hi int) (r uint64) {
		h := acc[:hi-lo]
		for k, d := range keys {
			if k == 0 {
				for i := range h {
					h[i] = hashcrc.Seed
				}
			}
			hashSlice(h, d, lo, hi)
		}
		for j := len(h) - 1; j >= 0; j-- {
			b := JoinFilterBit(hashcrc.Finalize(h[j]), partBits, logBits)
			r = r<<1 | words[b>>6]>>(b&63)&1
		}
		return r
	})
	cy := FilterCost(candidates) + (JoinFilterTestCost(len(keys))-costFilterPerRow)*float64(candidates)
	if inBV != nil {
		cy += costFilterPerWord * float64((inBV.Len()+63)/64)
	}
	charge(core, cy)
	return hits
}

// hashSlice folds rows [lo, hi) of d into the accumulators h.
func hashSlice(h []uint32, d coltypes.Data, lo, hi int) {
	switch d.Width() {
	case coltypes.W1:
		hashInto(h, d.I8()[lo:hi])
	case coltypes.W2:
		hashInto(h, d.I16()[lo:hi])
	case coltypes.W4:
		hashInto(h, d.I32()[lo:hi])
	default:
		hashInto(h, d.I64()[lo:hi])
	}
}

// JoinFilterTestCost is the modeled cycles of testing one probe row of the
// given key count: the CRC32 of each key and the final mix (as HashColumns),
// the bit-vector compare (BVLD/FILT, as FilterCost) and the DMEM load of the
// vector word the hash picks.
func JoinFilterTestCost(keys int) float64 {
	return costHashPerRowPerKey*float64(keys) + costArithPerRow + costFilterPerRow + costGatherPerRow
}

// JoinFilterFillCost is the modeled cycles of setting n build hashes' bits:
// the bit address from the hash, and a load, OR and store of its word.
func JoinFilterFillCost(n int) float64 {
	return (costArithPerRow + costGatherPerRow) * float64(n)
}

// JoinFilterBreakEven is the largest fraction of probe rows passing a filter
// of the given key count at which the filter still saves dpCore cycles.
// Testing costs every probe row JoinFilterTestCost(keys); each row dropped
// saves what the join would have spent on it after the collect:
//
//	collect    costWidenPerRow                            1.0
//	partition  costHashPerRowPerKey·keys + costArithPerRow  3.0 (1 key)
//	           costPartMapPerRow + costSwPartGatherPerRow   6.0
//	probe      costJoinProbePerRow                         15.0
//
// The filter pays when test < (1-p)·dropped, so the break-even is
// 1 - test/dropped: 1 - 5.6/25.0 = 0.776 for one key, 1 - 7.1/26.5 = 0.732
// for two. The partitioning is priced at its software round's cycles, and
// the DMS bytes a dropped row no longer moves (its collect write, its
// partition read and write, its probe read) are not counted, so the rule is
// conservative: a filter it arms saves at least these cycles.
func JoinFilterBreakEven(keys int) float64 {
	dropped := costWidenPerRow + costHashPerRowPerKey*float64(keys) + costArithPerRow +
		costPartMapPerRow + costSwPartGatherPerRow + costJoinProbePerRow
	return 1 - JoinFilterTestCost(keys)/dropped
}
