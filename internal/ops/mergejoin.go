package ops

import (
	"fmt"
	"sort"

	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/plan"
	"rapid/internal/primitives"
	"rapid/internal/qef"
)

// SortMergeJoin implements the sort-merge join of §6.5: "we apply a
// partitioning-based sorting and a merge-join step". Both inputs are
// range-partitioned on the join key with shared bounds (so matching keys
// land in the same partition pair), each dpCore radix-sorts its pair, and a
// merge scan emits the matches. Inner equi-join on a single key pair.
//
// The paper keeps hash join as the primary algorithm (§6, citing the
// sort-vs-hash analysis of Balkesen et al.); this operator exists for the
// comparison and for inputs that arrive pre-sorted downstream.
func SortMergeJoin(ctx *qef.Context, build, probe *Relation, spec JoinSpec) (*Relation, error) {
	if spec.Type != plan.InnerJoin {
		return nil, fmt.Errorf("ops: sort-merge join supports inner joins only")
	}
	if len(spec.BuildKeys) != 1 || len(spec.ProbeKeys) != 1 {
		return nil, fmt.Errorf("ops: sort-merge join takes exactly one key pair")
	}
	spec.normalize(build.Rows())
	build, probe = build.Flat(), probe.Flat()
	bKey := build.Col(spec.BuildKeys[0])
	pKey := probe.Col(spec.ProbeKeys[0])

	// Shared range bounds from a sample of both sides.
	ranges := ctx.Workers()
	bounds := sharedBounds(bKey, pKey, ranges)
	bParts := rangeSplit(build.Chunks[0], bKey, bounds)
	pParts := rangeSplit(probe.Chunks[0], pKey, bounds)

	sink := newJoinSink(build, probe, spec)
	units := make([]qef.WorkUnit, 0, len(bounds)+1)
	for p := 0; p <= len(bounds); p++ {
		units = append(units, func(tc *qef.TaskCtx) error {
			return mergeJoinPair(tc, bParts[p], pParts[p], &spec, sink, p)
		})
	}
	sink.out.units(ctx, len(units))
	if err := ctx.RunParallel(units); err != nil {
		return nil, err
	}
	return sink.relation(), nil
}

// sharedBounds samples both key columns and returns range splitters.
func sharedBounds(a, b coltypes.Data, ranges int) []int64 {
	if ranges <= 1 {
		return nil
	}
	var sample []int64
	take := func(d coltypes.Data) {
		n := d.Len()
		step := n/256 + 1
		for i := 0; i < n; i += step {
			sample = append(sample, d.Get(i))
		}
	}
	take(a)
	take(b)
	if len(sample) == 0 {
		return nil
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	bounds := make([]int64, ranges-1)
	for i := range bounds {
		bounds[i] = sample[(i+1)*len(sample)/ranges]
	}
	// Deduplicate bounds (heavy duplicates in the sample).
	out := bounds[:0]
	for i, bd := range bounds {
		if i == 0 || bd != out[len(out)-1] {
			out = append(out, bd)
		}
	}
	return out
}

// rangeSplit routes rows to len(bounds)+1 ranges by key.
func rangeSplit(cols []coltypes.Data, key coltypes.Data, bounds []int64) [][]coltypes.Data {
	nr := len(bounds) + 1
	n := key.Len()
	rids := make([][]uint32, nr)
	for i := 0; i < n; i++ {
		v := key.Get(i)
		lo, hi := 0, len(bounds)
		for lo < hi {
			mid := (lo + hi) / 2
			if v < bounds[mid] {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		rids[lo] = append(rids[lo], uint32(i))
	}
	out := make([][]coltypes.Data, nr)
	for p := 0; p < nr; p++ {
		out[p] = make([]coltypes.Data, len(cols))
		for c, col := range cols {
			dst := col.NewSame(len(rids[p]))
			coltypes.Gather(dst, col, rids[p])
			out[p][c] = dst
		}
	}
	return out
}

// mergeJoinPair sorts both sides of one range by key and merges.
func mergeJoinPair(tc *qef.TaskCtx, buildCols, probeCols []coltypes.Data, spec *JoinSpec, sink *joinSink, unit int) error {
	bKey := buildCols[spec.BuildKeys[0]]
	pKey := probeCols[spec.ProbeKeys[0]]
	nb, np := bKey.Len(), pKey.Len()
	if nb == 0 || np == 0 {
		return nil
	}
	bOrder := sortedOrder(tc, bKey)
	pOrder := sortedOrder(tc, pKey)

	var matches []struct{ b, p uint32 }
	bi, pi := 0, 0
	for bi < nb && pi < np {
		bv := bKey.Get(int(bOrder[bi]))
		pv := pKey.Get(int(pOrder[pi]))
		switch {
		case bv < pv:
			bi++
		case bv > pv:
			pi++
		default:
			// Block of equal keys on both sides: emit the cross product.
			bEnd := bi
			for bEnd < nb && bKey.Get(int(bOrder[bEnd])) == bv {
				bEnd++
			}
			pEnd := pi
			for pEnd < np && pKey.Get(int(pOrder[pEnd])) == pv {
				pEnd++
			}
			for x := bi; x < bEnd; x++ {
				for y := pi; y < pEnd; y++ {
					matches = append(matches, struct{ b, p uint32 }{bOrder[x], pOrder[y]})
				}
			}
			bi, pi = bEnd, pEnd
		}
	}
	if c := tc.Core; c != nil {
		// Merge scan: ~2 cycles per visited row plus emission.
		c.Charge(dpu.Cycles(2*(nb+np) + 2*len(matches)))
	}
	if len(matches) == 0 {
		return nil
	}
	ms := make([]primitives.Match, len(matches))
	for i, m := range matches {
		ms[i] = primitives.Match{BuildRow: m.b, ProbeRow: m.p}
	}
	sink.emitMatches(tc, unit, buildCols, probeCols, ms)
	return nil
}

// sortedOrder returns row indices of d in ascending key order using the
// per-core radix sort.
func sortedOrder(tc *qef.TaskCtx, d coltypes.Data) []uint32 {
	n := d.Len()
	order := make([]uint32, n)
	keys := make([]uint64, n)
	for i := 0; i < n; i++ {
		order[i] = uint32(i)
		keys[i] = orderKey(d.Get(i), false)
	}
	radixSortRIDs(tc, order, keys)
	return order
}
