package primitives

import (
	"fmt"
	mathbits "math/bits"

	"rapid/internal/bits"
	"rapid/internal/dpu"
)

// The hash-join kernel of paper §6.3 over one DMEM-resident partition.
//
// Billed layout — what the join declares against DMEM and what the cycle
// model charges: the paper's compact, pointer-free bucket chain, two integer
// arrays packed at ceil(log2 N) bits per element. `hash-buckets` holds the
// row id of the last tuple seen per bucket and `link` chains earlier tuples
// with the same hash backwards (HTSizeBytes). The §6.4 "small skew"
// resilience is part of it: build rows beyond the DMEM capacity overflow
// gracefully to DRAM (Fig 7b), and every probe of an overflowed table pays
// DRAM latency for them.
//
// Functional layout — what the Go code walks: the same buckets, sorted. Build
// counts the rows per bucket, prefix-sums the counts into bucket offsets and
// places every row id and its key(s) in its bucket's contiguous range,
// newest row first; a probe compares keys sequentially over one range
// instead of following a chain of dependent loads. The chain also visits a
// bucket newest first (overflow rows are the newest), so the match order is
// the chained table's: probe rows ascending, and within one probe row build
// rows descending. The table lives in storage the caller provides — task
// scratch on the join path — so building one allocates nothing.

// CompactHT is the compact hash table: bucket-sorted over caller storage,
// billed as the bit-packed chained layout.
type CompactHT struct {
	shift    uint // bucket = hash >> shift: the top bits, disjoint from partitioning's
	capacity int  // build rows the DMEM budget holds; the rest are billed as DRAM overflow
	n        int  // build rows inserted

	start []uint32 // bucket b holds entries [start[b], start[b+1])
	rows  []uint32 // build row id per entry, newest first within a bucket
	keys  []int64  // join key per entry
	keys2 []int64  // second join key per entry; nil for a one-key join
}

// BucketsFor returns the hash-table bucket count for n build rows: a power
// of two, reduced 2-4x below the row count per the paper's NDV-driven
// sizing.
func BucketsFor(n int) int {
	if n <= 4 {
		return 4
	}
	b := 1
	for b*4 < n {
		b <<= 1
	}
	return b
}

// HTSizeBytes returns the DMEM footprint of a compact table with the given
// capacity and bucket count — what the join operator declares as its
// op_dmem_size.
func HTSizeBytes(capacity, nBuckets int) int {
	w := bits.WidthFor(capacity + 1) // +1 for the end-of-chain sentinel
	return bits.PackedSizeBytes(nBuckets, w) + bits.PackedSizeBytes(capacity, w)
}

// NewCompactHT returns an empty table of nBuckets buckets (a power of two),
// billed for up to capacity DMEM rows, over the caller's storage: start
// holds nBuckets+1 offsets, rows and keys one entry per build row, and keys2
// one entry per build row for a two-key join (nil for a one-key join).
func NewCompactHT(capacity, nBuckets int, start, rows []uint32, keys, keys2 []int64) CompactHT {
	if nBuckets <= 0 || nBuckets&(nBuckets-1) != 0 {
		panic(fmt.Sprintf("primitives: bucket count %d must be a power of two", nBuckets))
	}
	if capacity < 0 {
		panic("primitives: negative capacity")
	}
	if len(start) < nBuckets+1 {
		panic(fmt.Sprintf("primitives: %d bucket offsets for %d buckets", len(start), nBuckets))
	}
	return CompactHT{
		shift:    uint(32 - mathbits.Len(uint(nBuckets-1))),
		capacity: capacity,
		start:    start[:nBuckets+1],
		rows:     rows,
		keys:     keys,
		keys2:    keys2,
	}
}

// Rows returns the number of build rows inserted (DMEM + overflow).
func (ht *CompactHT) Rows() int { return ht.n }

// Build inserts all rows of the partition: hv are the (hardware-computed)
// hash values, keys the join-key column, keys2 the second key column of a
// two-key join (nil otherwise). The bucket index is the top bits of the
// hash. tileRows is the tile size the rows arrive in (cost model only;
// larger tiles amortize the per-tile overhead, Fig 11).
func (ht *CompactHT) Build(core *dpu.Core, hv []uint32, keys, keys2 []int64, tileRows int) {
	n := len(hv)
	if len(keys) != n || (keys2 != nil && len(keys2) != n) || (keys2 == nil) != (ht.keys2 == nil) {
		panic("primitives: build input length mismatch")
	}
	if len(ht.rows) < n || len(ht.keys) < n || (keys2 != nil && len(ht.keys2) < n) {
		panic(fmt.Sprintf("primitives: table storage too small for %d build rows", n))
	}
	ht.n = n
	start := ht.start
	clear(start)
	for _, h := range hv {
		start[h>>ht.shift]++
	}
	// Inclusive prefix sum: start[b] is one past the last entry of bucket b.
	sum := uint32(0)
	for b := range start[:len(start)-1] {
		sum += start[b]
		start[b] = sum
	}
	start[len(start)-1] = sum
	// Rows placed in ascending order, each bucket filled from its end
	// backwards: the bucket ends newest first and start[b] at its first entry.
	for i, h := range hv {
		b := h >> ht.shift
		start[b]--
		ht.rows[start[b]] = uint32(i)
		ht.keys[start[b]] = keys[i]
	}
	if keys2 != nil {
		for j, r := range ht.rows[:n] {
			ht.keys2[j] = keys2[r]
		}
	}
	charge(core, JoinBuildCost(n, tileRows))
}

// Match is one join result: build-side row id and probe-side row id.
type Match struct {
	BuildRow uint32
	ProbeRow uint32
}

// Probe scans the probe rows: for each, compare its key against every entry
// of its bucket and emit a match per equal key. tileRows feeds the cost
// model. Results append to out.
func (ht *CompactHT) Probe(core *dpu.Core, hv []uint32, keys, keys2 []int64, tileRows int, out []Match) []Match {
	n := len(hv)
	first := len(out)
	if keys2 == nil {
		for i, h := range hv {
			lo, hi := ht.start[h>>ht.shift], ht.start[h>>ht.shift+1]
			k := keys[i]
			for j, bk := range ht.keys[lo:hi] {
				if bk == k {
					out = append(out, Match{BuildRow: ht.rows[lo+uint32(j)], ProbeRow: uint32(i)})
				}
			}
		}
	} else {
		for i, h := range hv {
			lo, hi := ht.start[h>>ht.shift], ht.start[h>>ht.shift+1]
			k, k2 := keys[i], keys2[i]
			bk2 := ht.keys2[lo:hi]
			for j, bk := range ht.keys[lo:hi] {
				if bk == k && bk2[j] == k2 {
					out = append(out, Match{BuildRow: ht.rows[lo+uint32(j)], ProbeRow: uint32(i)})
				}
			}
		}
	}
	hits := len(out) - first
	ratio := 0.0
	if n > 0 {
		ratio = float64(hits) / float64(n)
	}
	charge(core, JoinProbeCost(n, tileRows, ratio))
	// Overflow traversals pay DRAM latency instead of single-cycle DMEM.
	if ov := ht.n - ht.capacity; ov > 0 {
		charge(core, 20*float64(n)*float64(ov)/float64(ht.Rows()+1))
	}
	return out
}

// ProbeExists marks probe rows having at least one match (semi/anti joins)
// and returns how many it marked. It charges no DRAM latency for an
// overflowed table, unlike Probe.
func (ht *CompactHT) ProbeExists(core *dpu.Core, hv []uint32, keys, keys2 []int64, tileRows int, out *bits.Vector) int {
	n := len(hv)
	hits := 0
	if keys2 == nil {
		for i, h := range hv {
			lo, hi := ht.start[h>>ht.shift], ht.start[h>>ht.shift+1]
			k := keys[i]
			for _, bk := range ht.keys[lo:hi] {
				if bk == k {
					out.Set(i)
					hits++
					break
				}
			}
		}
	} else {
		for i, h := range hv {
			lo, hi := ht.start[h>>ht.shift], ht.start[h>>ht.shift+1]
			k, k2 := keys[i], keys2[i]
			bk2 := ht.keys2[lo:hi]
			for j, bk := range ht.keys[lo:hi] {
				if bk == k && bk2[j] == k2 {
					out.Set(i)
					hits++
					break
				}
			}
		}
	}
	ratio := 0.0
	if n > 0 {
		ratio = float64(hits) / float64(n)
	}
	charge(core, JoinProbeCost(n, tileRows, ratio))
	return hits
}
