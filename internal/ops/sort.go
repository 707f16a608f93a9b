package ops

import (
	"sort"

	"rapid/internal/dpu"
	"rapid/internal/plan"
	"rapid/internal/qef"
)

// Sorting (§5.4): "we provide sorting with a partitioning based algorithm;
// each dpCore utilizes a radix-sorting algorithm." SortRelation range-
// partitions the rows on the leading key so every dpCore sorts an
// independent range with LSD radix sort, and the ranges concatenate into
// the total order.

// orderKey transforms a signed value into a uint64 whose unsigned order
// matches the requested order (bias the sign bit; complement for DESC).
func orderKey(v int64, desc bool) uint64 {
	u := uint64(v) ^ (1 << 63)
	if desc {
		u = ^u
	}
	return u
}

// SortRelation returns rel's rows reordered by the sort keys.
func SortRelation(ctx *qef.Context, rel *Relation, keys []plan.SortItem) (*Relation, error) {
	n := rel.Rows()
	if n == 0 || len(keys) == 0 {
		return rel, nil
	}
	rel = rel.Flat()
	// Transformed key vectors.
	tkeys := make([][]uint64, len(keys))
	for k, sk := range keys {
		col := rel.Col(sk.Col)
		tk := make([]uint64, n)
		for i := 0; i < n; i++ {
			tk[i] = orderKey(col.Get(i), sk.Desc)
		}
		tkeys[k] = tk
	}

	// Range partitioning on the leading key: sample, pick bounds, route.
	ranges := ctx.Workers()
	if ranges > n {
		ranges = 1
	}
	bounds := sampleBounds(tkeys[0], ranges)
	rangeOf := func(v uint64) int {
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
	rids := make([][]uint32, ranges)
	for i := 0; i < n; i++ {
		r := rangeOf(tkeys[0][i])
		rids[r] = append(rids[r], uint32(i))
	}

	// Per-range multi-key radix sort, in parallel.
	units := make([]qef.WorkUnit, 0, ranges)
	for r := 0; r < ranges; r++ {
		r := r
		units = append(units, func(tc *qef.TaskCtx) error {
			// Stable LSD over the keys, least-significant key first.
			for k := len(tkeys) - 1; k >= 0; k-- {
				radixSortRIDs(tc, rids[r], tkeys[k])
			}
			return nil
		})
	}
	if err := ctx.RunParallel(units); err != nil {
		return nil, err
	}

	// Concatenate ranges and gather the output.
	order := make([]uint32, 0, n)
	for r := 0; r < ranges; r++ {
		order = append(order, rids[r]...)
	}
	return rel.gather(order), nil
}

// sampleBounds picks ranges-1 splitters from a sample of the keys.
func sampleBounds(keys []uint64, ranges int) []uint64 {
	if ranges <= 1 {
		return nil
	}
	const perRange = 32
	sampleN := ranges * perRange
	sample := make([]uint64, 0, sampleN)
	step := len(keys) / sampleN
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(keys); i += step {
		sample = append(sample, keys[i])
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	bounds := make([]uint64, ranges-1)
	for b := range bounds {
		bounds[b] = sample[(b+1)*len(sample)/ranges]
	}
	return bounds
}

// radixSortRIDs stably sorts the rid slice by key[rid] using byte-wise LSD
// counting sort, skipping constant bytes.
func radixSortRIDs(tc *qef.TaskCtx, rids []uint32, key []uint64) {
	n := len(rids)
	if n <= 1 {
		return
	}
	tmp := make([]uint32, n)
	var counts [256]int
	passes := 0
	for shift := uint(0); shift < 64; shift += 8 {
		for i := range counts {
			counts[i] = 0
		}
		first := byte(key[rids[0]] >> shift)
		constant := true
		for _, r := range rids {
			b := byte(key[r] >> shift)
			counts[b]++
			if b != first {
				constant = false
			}
		}
		if constant {
			continue
		}
		passes++
		sum := 0
		for i := range counts {
			c := counts[i]
			counts[i] = sum
			sum += c
		}
		for _, r := range rids {
			b := byte(key[r] >> shift)
			tmp[counts[b]] = r
			counts[b]++
		}
		copy(rids, tmp)
	}
	if c := tc.Core; c != nil {
		// ~3 cycles/row per pass (read, bucket update, store).
		c.Charge(dpu.Cycles(3 * n * (passes + 1)))
	}
}
