package bench

import (
	"strconv"
	"strings"
	"testing"
)

func TestAblationJoinAlgorithm(t *testing.T) {
	tbl := sharedFigures(t).AblationJoin
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if r[1] == "ERR" {
			t.Fatalf("%s failed: %s", r[0], r[2])
		}
	}
	// Both must complete; the hash join should not lose badly (it is the
	// paper's primary choice).
	hash := cellF(t, tbl, 0, 1)
	merge := cellF(t, tbl, 1, 1)
	if hash > 3*merge {
		t.Fatalf("hash join (%.3f ms) far slower than sort-merge (%.3f ms)", hash, merge)
	}
}

func TestAblationPartitionScheme(t *testing.T) {
	tbl := sharedFigures(t).AblationScheme
	if len(tbl.Rows) < 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	var optCost float64
	minCost := 1e18
	for i, r := range tbl.Rows {
		if r[1] == "invalid" || r[1] == "ERR" {
			continue
		}
		c := cellF(t, tbl, i, 1)
		if strings.HasPrefix(r[0], "optimized") {
			optCost = c
		}
		if c < minCost {
			minCost = c
		}
	}
	if optCost == 0 {
		t.Fatal("no optimized row")
	}
	// The optimizer's choice must be the cheapest candidate by its own
	// cost model.
	if optCost > minCost {
		t.Fatalf("optimized scheme cost %.3f above best candidate %.3f", optCost, minCost)
	}
}

func TestAblationFilterRepr(t *testing.T) {
	tbl := sharedFigures(t).AblationFilterRepr
	// The representation switch happens at 1/32 = 3.125%.
	for _, r := range tbl.Rows {
		sel, err := strconv.ParseFloat(strings.TrimSuffix(r[0], "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if sel < 3.125 && r[1] != "RID list" {
			t.Fatalf("at %.3f%% expected RID list, got %s", sel, r[1])
		}
		if sel >= 3.125 && r[1] != "bit-vector" {
			t.Fatalf("at %.3f%% expected bit-vector, got %s", sel, r[1])
		}
	}
	// At very low selectivity the RID-driven second predicate must be far
	// cheaper than the bit-vector one.
	ridCy := cellF(t, tbl, 0, 4)
	bvCy := cellF(t, tbl, 0, 5)
	if ridCy >= bvCy {
		t.Fatalf("sparse RID pass (%v) should beat BV pass (%v)", ridCy, bvCy)
	}
}

func TestAblationCompactHT(t *testing.T) {
	tbl := sharedFigures(t).AblationCompactHT
	for i := range tbl.Rows {
		compact := cellF(t, tbl, i, 1)
		plain := cellF(t, tbl, i, 2)
		if compact >= plain {
			t.Fatalf("row %d: compact (%v) not smaller than plain (%v)", i, compact, plain)
		}
	}
	// The paper's point: at 4096 rows the compact table still fits half the
	// DMEM while the plain one does not — larger partitions stay resident.
	found := false
	for _, r := range tbl.Rows {
		if r[0] == "4096" && strings.HasPrefix(r[3], "true / false") {
			found = true
		}
	}
	if !found {
		t.Fatal("compact table should fit 4096 rows where plain32 does not")
	}
}
