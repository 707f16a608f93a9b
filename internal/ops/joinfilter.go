package ops

import (
	"fmt"

	"rapid/internal/bits"
	"rapid/internal/primitives"
	"rapid/internal/qef"
)

// JoinFilter is a bit-vector join filter: a Predicate that passes a row only
// when the build side may hold its key. Each build row set the bit of its key
// hash (primitives.JoinFilterBit), so no row of a matching key is ever
// dropped; a row of another key passes when its bit was set by chance. The
// tested rows are those of a scan that produces the join's probe keys: the
// probe side's own, or one below it that the join does not partition
// (qcomp's join filter schedule), since the key hash is the same function of
// the key's value in either. It is the sibling of InSet, whose bitmap is
// indexed by dictionary code rather than key hash.
//
// The vector lives in DRAM once filled. A core loads it into its DMEM before
// its first test and keeps it there for the rest of the tested scan, as it
// keeps a group-by table; the compiler counts it beside the FilterOp's
// DMEMSize, so the task former sizes that pipeline's tiles with it resident.
type JoinFilter struct {
	keys []int // the tested key columns in the tile, in the build keys' order

	words    []uint64
	partBits uint
	logBits  uint

	// Per core: whether the vector is in its DMEM, and the rows it dropped.
	// Core w writes only slot w.
	loaded  []bool
	dropped []int64
}

// Bits is the filter's size in bits.
func (f *JoinFilter) Bits() int { return 1 << f.logBits }

// ResidentBytes is the DMEM the vector takes on each core that tests.
func (f *JoinFilter) ResidentBytes() int { return 8 * len(f.words) }

// Dropped is the number of rows the filter has rejected so far.
func (f *JoinFilter) Dropped() int64 {
	var n int64
	for _, d := range f.dropped {
		n += d
	}
	return n
}

// Filter fills a 2^logBits-bit join filter from the build side's key hashes,
// to be tested on key columns probeKeys of the tiles that test it. It partitions the build side first (the
// partitioning the join runs anyway, whose hash engine computes the hashes),
// so logBits must leave every partition at least one 64-bit word. One work
// unit per partition reads the partition's hashes, sets their bits in its own
// segment and writes that segment to DRAM.
func (b *JoinBuild) Filter(ctx *qef.Context, probeKeys []int, logBits uint) (*JoinFilter, error) {
	if len(probeKeys) != len(b.spec.BuildKeys) {
		return nil, fmt.Errorf("ops: join filter has %d probe keys for %d build keys", len(probeKeys), len(b.spec.BuildKeys))
	}
	f := &JoinFilter{
		keys:    probeKeys,
		logBits: logBits,
		loaded:  make([]bool, ctx.Workers()),
		dropped: make([]int64, ctx.Workers()),
	}
	if b.rel.Rows() > 0 {
		if err := b.Partition(ctx); err != nil {
			return nil, err
		}
		f.partBits = b.parts.Bits
	}
	if logBits < f.partBits+6 {
		return nil, fmt.Errorf("ops: a %d-bit join filter has less than a word for each of %d partitions", 1<<logBits, 1<<f.partBits)
	}
	f.words = make([]uint64, 1<<logBits/64)
	if b.parts == nil {
		// An empty build side sets no bit: one unit writes the empty vector.
		return f, ctx.RunSerial(func(tc *qef.TaskCtx) error {
			if tc.Core != nil {
				tc.AddTransfer(tc.DMS.StreamWrite(f.ResidentBytes()))
			}
			return nil
		})
	}
	// A partition's hashes share their low partBits bits, so its unit sets
	// bits in its own segment only.
	segBytes := f.ResidentBytes() >> f.partBits
	units := make([]qef.WorkUnit, b.parts.NumPartitions())
	for p := range units {
		hv := b.parts.Hashes[p]
		units[p] = func(tc *qef.TaskCtx) error {
			if tc.Core != nil {
				tc.AddTransfer(tc.DMS.StreamRead(4 * len(hv)))
				tc.AddTransfer(tc.DMS.StreamWrite(segBytes))
			}
			primitives.FillJoinFilter(tc.Core, hv, f.words, f.partBits, logBits)
			return nil
		}
	}
	return f, ctx.RunParallel(units)
}

// Eval tests the key hashes of the candidate rows. A core's first test loads
// the vector into its DMEM.
func (f *JoinFilter) Eval(tc *qef.TaskCtx, t *qef.Tile, _ Slots, inBV *bits.Vector) (*bits.Vector, int) {
	if !f.loaded[tc.CoreID] {
		f.loaded[tc.CoreID] = true
		if tc.Core != nil {
			tc.AddTransfer(tc.DMS.StreamRead(f.ResidentBytes()))
		}
	}
	keys := tc.Pool.Headers(len(f.keys))
	for i, k := range f.keys {
		keys[i] = t.Cols[k]
	}
	out := tc.Pool.BV(t.N)
	hits := primitives.FilterJoinBV(tc.Core, keys, f.words, f.partBits, f.logBits, inBV, out)
	candidates := t.N
	if inBV != nil {
		candidates = inBV.Count()
	}
	f.dropped[tc.CoreID] += int64(candidates - hits)
	return out, hits
}
