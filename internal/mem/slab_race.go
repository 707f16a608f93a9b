//go:build race

package mem

// poison overwrites a buffer on its way back to the slab, and every data take
// of a tile pool, in race builds only: a holder that reads a lease after
// returning it, returns it twice or counts on a lease or a take arriving
// zeroed then computes a wrong answer in every CI lane that runs under the
// race detector, instead of depending on what the buffer's previous or next
// holder happens to write.
func poison(buf []int64) {
	for i := range buf {
		buf[i] = 0x5A5A5A5A5A5A5A5A
	}
}
