package primitives

import (
	"fmt"

	"rapid/internal/bits"
	"rapid/internal/dpu"
)

// The hash-join kernel of paper §6.3: a compact, pointer-free hash table
// over a DMEM-resident partition. The bucket-chained layout is mimicked with
// two bit-packed integer arrays sized at ceil(log2 N) bits per element —
// `hash-buckets` holds the row id of the last tuple seen per bucket and
// `link` chains earlier tuples with the same hash backwards. The §6.4
// "small skew" resilience is built in: when the DMEM budget is exhausted,
// build rows overflow gracefully to DRAM-side arrays (Fig 7b) and probes
// traverse both regions.

// CompactHT is the DMEM-resident compact hash table.
type CompactHT struct {
	mask     uint32
	sentinel uint64

	buckets *bits.PackedArray // nBuckets entries of width bits
	link    *bits.PackedArray // capacity entries of width bits

	keys  []int64 // build keys (DMEM partition column, widened)
	keys2 []int64 // optional second key column
	rows  int     // rows inserted into the DMEM region

	// DRAM overflow region (small-skew resilience, §6.4).
	capacity       int
	ovBuckets      map[uint32]int32 // bucket -> last overflow row (DRAM hash-buckets version)
	ovLink         []int32          // chain among overflow rows; -1 ends
	ovToDmemChain  []int32          // continuation from overflow chain into the DMEM region; -2 = none
	ovKeys, ovKey2 []int64
	ovRows         []int32 // original row ids of overflow rows
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
	w := bits.WidthFor(capacity + 1)
	return bits.PackedSizeBytes(nBuckets, w) + bits.PackedSizeBytes(capacity, w)
}

// NewCompactHT builds an empty table for up to capacity DMEM rows and the
// given bucket count (power of two).
func NewCompactHT(capacity, nBuckets int) *CompactHT {
	if nBuckets <= 0 || nBuckets&(nBuckets-1) != 0 {
		panic(fmt.Sprintf("primitives: bucket count %d must be a power of two", nBuckets))
	}
	if capacity < 0 {
		panic("primitives: negative capacity")
	}
	w := bits.WidthFor(capacity + 1) // +1 for the end-of-chain sentinel
	ht := &CompactHT{
		mask:     uint32(nBuckets - 1),
		sentinel: uint64(capacity),
		buckets:  bits.NewPackedArray(nBuckets, w),
		link:     bits.NewPackedArray(capacity, w),
		capacity: capacity,
	}
	ht.buckets.Fill(ht.sentinel)
	return ht
}

// Rows returns the number of build rows inserted (DMEM + overflow).
func (ht *CompactHT) Rows() int { return ht.rows + len(ht.ovRows) }

// Build inserts all rows of the partition: hv are the (hardware-computed)
// hash values, keys the join-key column, keys2 an optional second key
// column. tileRows is the tile size the rows arrive in (cost model only;
// larger tiles amortize the per-tile overhead, Fig 11). Rows beyond the
// DMEM capacity overflow to DRAM. Vectorized: one tight loop, no branches
// besides the capacity check.
func (ht *CompactHT) Build(core *dpu.Core, hv []uint32, keys, keys2 []int64, tileRows int) {
	n := len(hv)
	if len(keys) != n || (keys2 != nil && len(keys2) != n) {
		panic("primitives: build input length mismatch")
	}
	ht.keys = keys
	ht.keys2 = keys2
	for i := 0; i < n; i++ {
		b := hv[i] & ht.mask
		if ht.rows < ht.capacity {
			row := ht.rows
			ht.link.Set(row, ht.buckets.Get(int(b)))
			ht.buckets.Set(int(b), uint64(row))
			ht.rows++
			continue
		}
		// Graceful overflow to DRAM (§6.4 small skew).
		ov := int32(len(ht.ovRows))
		if ht.ovBuckets == nil {
			ht.ovBuckets = make(map[uint32]int32)
		}
		prev, seen := ht.ovBuckets[b]
		if seen {
			ht.ovLink = append(ht.ovLink, prev)
			ht.ovToDmemChain = append(ht.ovToDmemChain, -2)
		} else {
			// First overflow in this bucket: remember where the DMEM
			// chain begins so probes continue into it.
			ht.ovLink = append(ht.ovLink, -1)
			dm := ht.buckets.Get(int(b))
			if dm == ht.sentinel {
				ht.ovToDmemChain = append(ht.ovToDmemChain, -2)
			} else {
				ht.ovToDmemChain = append(ht.ovToDmemChain, int32(dm))
			}
		}
		ht.ovBuckets[b] = ov
		ht.ovKeys = append(ht.ovKeys, keys[i])
		if keys2 != nil {
			ht.ovKey2 = append(ht.ovKey2, keys2[i])
		}
		ht.ovRows = append(ht.ovRows, int32(i))
	}
	charge(core, JoinBuildCost(n, tileRows))
}

// Match is one join result: build-side row id and probe-side row id.
type Match struct {
	BuildRow uint32
	ProbeRow uint32
}

// Probe scans the probe rows: for each, walk the bucket chain and emit a
// match per equal key. tileRows feeds the cost model. Results append to out.
func (ht *CompactHT) Probe(core *dpu.Core, hv []uint32, keys, keys2 []int64, tileRows int, out []Match) []Match {
	n := len(hv)
	hits := 0
	overflowed := len(ht.ovRows) > 0
	for i := 0; i < n; i++ {
		b := hv[i] & ht.mask
		k := keys[i]
		// DRAM overflow chain first (newest rows), then the DMEM chain. A
		// table that never overflowed skips the overflow-map lookup.
		dmStart := int64(-1)
		ov, ok := int32(0), false
		if overflowed {
			ov, ok = ht.ovBuckets[b]
		}
		if ok {
			for cur := ov; cur >= 0; {
				if ht.ovKeys[cur] == k && (keys2 == nil || ht.ovKey2[cur] == keys2[i]) {
					out = append(out, Match{BuildRow: uint32(ht.ovRows[cur]), ProbeRow: uint32(i)})
					hits++
				}
				next := ht.ovLink[cur]
				if next < 0 {
					if cont := ht.ovToDmemChain[cur]; cont >= 0 {
						dmStart = int64(cont)
					}
					break
				}
				cur = next
			}
		} else {
			if first := ht.buckets.Get(int(b)); first != ht.sentinel {
				dmStart = int64(first)
			}
		}
		for cur := dmStart; cur >= 0; {
			if ht.keys[cur] == k && (keys2 == nil || ht.keys2[cur] == keys2[i]) {
				out = append(out, Match{BuildRow: uint32(cur), ProbeRow: uint32(i)})
				hits++
			}
			next := ht.link.Get(int(cur))
			if next == ht.sentinel {
				break
			}
			cur = int64(next)
		}
	}
	ratio := 0.0
	if n > 0 {
		ratio = float64(hits) / float64(n)
	}
	charge(core, JoinProbeCost(n, tileRows, ratio))
	// Overflow traversals pay DRAM latency instead of single-cycle DMEM.
	if len(ht.ovRows) > 0 {
		charge(core, 20*float64(n)*float64(len(ht.ovRows))/float64(ht.Rows()+1))
	}
	return out
}

// ProbeExists marks probe rows having at least one match (semi/anti joins).
func (ht *CompactHT) ProbeExists(core *dpu.Core, hv []uint32, keys, keys2 []int64, tileRows int, out *bits.Vector) int {
	n := len(hv)
	hits := 0
	overflowed := len(ht.ovRows) > 0
	for i := 0; i < n; i++ {
		b := hv[i] & ht.mask
		k := keys[i]
		found := false
		dmStart := int64(-1)
		ov, ok := int32(0), false
		if overflowed {
			ov, ok = ht.ovBuckets[b]
		}
		if ok {
			for cur := ov; cur >= 0 && !found; {
				if ht.ovKeys[cur] == k && (keys2 == nil || ht.ovKey2[cur] == keys2[i]) {
					found = true
					break
				}
				next := ht.ovLink[cur]
				if next < 0 {
					if cont := ht.ovToDmemChain[cur]; cont >= 0 {
						dmStart = int64(cont)
					}
					break
				}
				cur = next
			}
		} else {
			if first := ht.buckets.Get(int(b)); first != ht.sentinel {
				dmStart = int64(first)
			}
		}
		for cur := dmStart; cur >= 0 && !found; {
			if ht.keys[cur] == k && (keys2 == nil || ht.keys2[cur] == keys2[i]) {
				found = true
				break
			}
			next := ht.link.Get(int(cur))
			if next == ht.sentinel {
				break
			}
			cur = int64(next)
		}
		if found {
			out.Set(i)
			hits++
		}
	}
	ratio := 0.0
	if n > 0 {
		ratio = float64(hits) / float64(n)
	}
	charge(core, JoinProbeCost(n, tileRows, ratio))
	return hits
}
