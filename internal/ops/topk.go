package ops

import (
	"sort"

	"rapid/internal/coltypes"
	"rapid/internal/dpu"
	"rapid/internal/plan"
	"rapid/internal/qef"
)

// TopK is RAPID's vectorized top-k operator (§5.4): each dpCore keeps a
// bounded candidate set for its row span, pruning tiles against the current
// k-th threshold, and a final merge sorts the few surviving candidates.
func TopK(ctx *qef.Context, rel *Relation, keys []plan.SortItem, k int) (*Relation, error) {
	n := rel.Rows()
	if k <= 0 {
		return Limit(rel, 0), nil
	}
	if n <= k {
		return SortRelation(ctx, rel, keys)
	}
	rel = rel.Flat()
	tkeys := make([][]uint64, len(keys))
	for i, sk := range keys {
		col := rel.Col(sk.Col)
		tk := make([]uint64, n)
		for r := 0; r < n; r++ {
			tk[r] = orderKey(col.Get(r), sk.Desc)
		}
		tkeys[i] = tk
	}
	less := func(a, b uint32) bool {
		for _, tk := range tkeys {
			if tk[a] != tk[b] {
				return tk[a] < tk[b]
			}
		}
		return a < b // deterministic tiebreak
	}

	workers := ctx.Workers()
	span := (n + workers - 1) / workers
	locals := make([][]uint32, workers)
	units := make([]qef.WorkUnit, 0, workers)
	for w := 0; w < workers; w++ {
		lo := w * span
		hi := lo + span
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		w, lo, hi := w, lo, hi
		units = append(units, func(tc *qef.TaskCtx) error {
			// Bounded candidate set: append, and compact back to k by
			// partial sort whenever it doubles. Amortized ~O(n).
			cand := make([]uint32, 0, 2*k)
			var threshold uint32
			haveThreshold := false
			for i := lo; i < hi; i++ {
				r := uint32(i)
				if haveThreshold && !less(r, threshold) {
					continue
				}
				cand = append(cand, r)
				if len(cand) >= 2*k {
					sort.Slice(cand, func(a, b int) bool { return less(cand[a], cand[b]) })
					cand = cand[:k]
					threshold = cand[k-1]
					haveThreshold = true
				}
			}
			sort.Slice(cand, func(a, b int) bool { return less(cand[a], cand[b]) })
			if len(cand) > k {
				cand = cand[:k]
			}
			locals[w] = cand
			if c := tc.Core; c != nil {
				c.Charge(dpu.Cycles(2 * (hi - lo)))
			}
			return nil
		})
	}
	if err := ctx.RunParallel(units); err != nil {
		return nil, err
	}
	// Merge the (<= workers*k) candidates.
	var all []uint32
	for _, l := range locals {
		all = append(all, l...)
	}
	sort.Slice(all, func(a, b int) bool { return less(all[a], all[b]) })
	if len(all) > k {
		all = all[:k]
	}
	return rel.gather(all), nil
}

// Limit returns the first k rows (no ordering).
func Limit(rel *Relation, k int) *Relation {
	if k >= rel.Rows() {
		return rel
	}
	var chunks [][]coltypes.Data
	for _, ch := range rel.Chunks {
		take := min(k, ch[0].Len())
		piece := make([]coltypes.Data, len(ch))
		for c, d := range ch {
			piece[c] = d.Slice(0, take)
		}
		chunks = append(chunks, piece)
		if k -= take; k == 0 {
			break
		}
	}
	return MustRelation(rel.Cols, chunks...)
}
