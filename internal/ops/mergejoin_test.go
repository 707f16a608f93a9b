package ops

import (
	"math/rand"
	"testing"

	"rapid/internal/plan"
	"rapid/internal/qef"
)

func TestSortMergeJoinBasic(t *testing.T) {
	bothModes(t, func(t *testing.T, ctx *qef.Context) {
		build := intRel([]string{"k", "bv"}, []int64{5, 1, 3, 1}, []int64{50, 10, 30, 11})
		probe := intRel([]string{"k", "pv"}, []int64{1, 2, 3, 1}, []int64{100, 200, 300, 101})
		out, err := SortMergeJoin(ctx, build, probe, JoinSpec{
			Type: plan.InnerJoin, BuildKeys: []int{0}, ProbeKeys: []int{0},
			ProbePayload: []int{0, 1}, BuildPayload: []int{1},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Key 1: 2 build x 2 probe = 4; key 3: 1x1 = 1. Total 5.
		if out.Rows() != 5 {
			t.Fatalf("rows = %d, want 5", out.Rows())
		}
		for i := 0; i < out.Rows(); i++ {
			k := out.Get(i, 0)
			bv := out.Get(i, 2)
			if k == 3 && bv != 30 {
				t.Fatal("payload misaligned")
			}
		}
	})
}

// Sort-merge and hash join must agree on random inputs — the two §6
// algorithms are interchangeable on inner equi-joins.
func TestSortMergeMatchesHashJoin(t *testing.T) {
	ctx := qef.NewContext(qef.ModeX86)
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 100))
		nb, np := rng.Intn(2000)+1, rng.Intn(2000)+1
		bk := seq(nb, func(int) int64 { return int64(rng.Intn(300)) })
		pk := seq(np, func(int) int64 { return int64(rng.Intn(300)) })
		build := intRel([]string{"k"}, bk)
		probe := intRel([]string{"k"}, pk)
		spec := JoinSpec{
			Type: plan.InnerJoin, BuildKeys: []int{0}, ProbeKeys: []int{0},
			ProbePayload: []int{0}, BuildPayload: []int{0},
			Scheme: PartScheme{Rounds: []int{4}},
		}
		hj, err := HashJoin(ctx, build, probe, spec)
		if err != nil {
			t.Fatal(err)
		}
		smj, err := SortMergeJoin(ctx, build, probe, spec)
		if err != nil {
			t.Fatal(err)
		}
		if hj.Rows() != smj.Rows() {
			t.Fatalf("trial %d: hash %d vs merge %d rows", trial, hj.Rows(), smj.Rows())
		}
	}
}

func TestSortMergeJoinErrors(t *testing.T) {
	ctx := qef.NewContext(qef.ModeX86)
	r := intRel([]string{"k"}, []int64{1})
	if _, err := SortMergeJoin(ctx, r, r, JoinSpec{Type: plan.SemiJoin, BuildKeys: []int{0}, ProbeKeys: []int{0}}); err == nil {
		t.Fatal("semi join unsupported")
	}
	if _, err := SortMergeJoin(ctx, r, r, JoinSpec{Type: plan.InnerJoin, BuildKeys: []int{0, 0}, ProbeKeys: []int{0, 0}}); err == nil {
		t.Fatal("composite key unsupported")
	}
}

func TestSortMergeJoinEmptySides(t *testing.T) {
	ctx := qef.NewContext(qef.ModeX86)
	empty := intRel([]string{"k"}, []int64{})
	full := intRel([]string{"k"}, []int64{1, 2, 3})
	out, err := SortMergeJoin(ctx, empty, full, JoinSpec{
		Type: plan.InnerJoin, BuildKeys: []int{0}, ProbeKeys: []int{0}, ProbePayload: []int{0},
	})
	if err != nil || out.Rows() != 0 {
		t.Fatalf("empty build: %v rows=%d", err, out.Rows())
	}
}
