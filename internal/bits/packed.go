package bits

import "math/bits"

// The RAPID hash-join kernel (paper §6.3) keeps its hash-buckets and link
// arrays at exactly ceil(log2 N) bits per element so that N-row partitions fit
// in the 32 KiB DMEM. The join bills that footprint against DMEM; these two
// functions are its formula.

// WidthFor returns the minimal element width able to hold values 0..n-1,
// i.e. ceil(log2 n). WidthFor(0) and WidthFor(1) return 0.
func WidthFor(n int) uint {
	if n <= 1 {
		return 0
	}
	return uint(bits.Len64(uint64(n - 1)))
}

// PackedSizeBytes returns the footprint in bytes of an n-element array
// packed at the given bit width into whole 64-bit words. This is the
// quantity the join kernel budgets against DMEM capacity.
func PackedSizeBytes(n int, width uint) int {
	totalBits := uint64(n) * uint64(width)
	return int((totalBits + wordBits - 1) / wordBits * 8)
}
