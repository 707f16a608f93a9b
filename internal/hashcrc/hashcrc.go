// Package hashcrc provides the CRC32 hash-value generation that the RAPID
// DPU exposes as a single-cycle dpCore instruction and as the hash engine of
// the DMS (paper §2.1, §5.4). Both the hardware-partitioning path and the
// software join/group-by kernels hash with the same function, which is why
// hardware-computed hash vectors can feed software partitioning directly.
//
// We use the Castagnoli polynomial: it is the CRC32 variant implemented in
// hardware on commodity CPUs, matching the "hardware hash engine" role it
// plays here. Values are folded with inline slicing-by-8 tables derived from
// the standard library's Castagnoli table, so the result is bit-identical to
// crc32.Update while the per-value cost is eight L1 table loads instead of a
// call into hash/crc32 through a byte slice.
package hashcrc

import "hash/crc32"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// slice8[k][b] is the CRC of byte b followed by k zero bytes — the classic
// slicing tables: slice8[0] is the plain byte table.
var slice8 = func() (t [8][256]uint32) {
	t[0] = *castagnoli
	for k := 1; k < 8; k++ {
		for b := range t[k] {
			prev := t[k-1][b]
			t[k][b] = t[0][prev&0xff] ^ prev>>8
		}
	}
	return t
}()

// Seed is the initial CRC accumulator value for the first key column.
const Seed uint32 = 0

// Hash64 folds an 8-byte value (little-endian) into the accumulator.
func Hash64(acc uint32, v uint64) uint32 {
	lo, hi := ^acc^uint32(v), uint32(v>>32)
	return ^(slice8[7][lo&0xff] ^ slice8[6][lo>>8&0xff] ^ slice8[5][lo>>16&0xff] ^ slice8[4][lo>>24] ^
		slice8[3][hi&0xff] ^ slice8[2][hi>>8&0xff] ^ slice8[1][hi>>16&0xff] ^ slice8[0][hi>>24])
}

// Finalize mixes the accumulator so that low bits depend on all input bits;
// the DMS radix stage and the join kernel's bit-mask modulo both consume low
// bits directly.
func Finalize(acc uint32) uint32 {
	// CRC32 already diffuses well; a single multiplicative mix guards the
	// degenerate single-key case where inputs differ only in high bits.
	acc ^= acc >> 16
	acc *= 0x85ebca6b
	acc ^= acc >> 13
	return acc
}
