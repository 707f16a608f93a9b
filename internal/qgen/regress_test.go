package qgen

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"rapid/internal/cluster"
	"rapid/internal/coltypes"
	"rapid/internal/encoding"
	"rapid/internal/hostdb"
	"rapid/internal/qef"
	"rapid/internal/storage"
)

// regressScenario is a minimal fixed table used to pin engine bugs the
// harness surfaced; the SQL below is the minimized reproducer in each case.
func regressScenario() *Scenario {
	return &Scenario{
		Seed: 0,
		Tables: []*Table{{
			Name: "t0",
			Cols: []Column{
				{Name: "k0", Kind: KInt, Type: coltypes.Int(), Hi: 20},
				{Name: "a0", Kind: KInt, Type: coltypes.Int(), Hi: 99},
			},
			Rows: [][]storage.Value{
				{storage.IntValue(3), storage.IntValue(30)},
				{storage.IntValue(1), storage.IntValue(10)},
				{storage.IntValue(2), storage.IntValue(20)},
			},
		}},
	}
}

// Regression: ORDER BY ... LIMIT 0 returned 1 row on RAPID (qcomp fuses
// Sort+Limit into TopK, and ops.TopK clamped k <= 0 up to 1) while the host
// correctly returned none.
func TestRegressLimitZeroWithOrderBy(t *testing.T) {
	r, err := NewRunner(regressScenario())
	if err != nil {
		t.Fatal(err)
	}
	if m := r.CheckSQL("SELECT a0 FROM t0 ORDER BY a0 LIMIT 0"); m != nil {
		t.Fatalf("%s", m.Reproducer())
	}
}

// Regression: MIN/MAX over an empty input leaked the int64 identity
// sentinels (MaxInt64/MinInt64) out of qcomp's scalar finalization; the
// host row engine emits a zero row for scalar aggregates over no input.
func TestRegressMinMaxOverEmptyInput(t *testing.T) {
	r, err := NewRunner(regressScenario())
	if err != nil {
		t.Fatal(err)
	}
	if m := r.CheckSQL("SELECT MIN(a0), MAX(a0), SUM(a0), COUNT(a0), AVG(a0) FROM t0 WHERE a0 > 100"); m != nil {
		t.Fatalf("%s", m.Reproducer())
	}
}

// Regression: a scan of a wide table feeding a narrow projection exhausted
// DMEM on ModeDPU. Task formation sized the scan's double buffers from the
// pipeline's post-projection width (1 column) while the relation accessor
// allocated buffers for every streamed source column, so three or more wide
// columns overflowed the 32 KiB scratchpad and the forced offload fell back
// to the host. ModeX86 was unaffected (zero-copy path).
func TestRegressWideScanNarrowProjection(t *testing.T) {
	sc := &Scenario{
		Seed: 0,
		Tables: []*Table{
			{
				Name: "t0",
				Cols: []Column{
					{Name: "k0", Kind: KInt, Type: coltypes.Int(), Hi: 20},
					{Name: "a0", Kind: KInt, Type: coltypes.Int(), Hi: 99},
					{Name: "b0", Kind: KInt, Type: coltypes.Int(), Hi: 99},
					{Name: "c0", Kind: KInt, Type: coltypes.Int(), Hi: 99},
				},
				Rows: [][]storage.Value{
					{storage.IntValue(1), storage.IntValue(10), storage.IntValue(11), storage.IntValue(12)},
					{storage.IntValue(2), storage.IntValue(20), storage.IntValue(21), storage.IntValue(22)},
					{storage.IntValue(2), storage.IntValue(25), storage.IntValue(26), storage.IntValue(27)},
				},
			},
			{
				Name: "t1",
				Cols: []Column{
					{Name: "k1", Kind: KInt, Type: coltypes.Int(), Hi: 20},
				},
				Rows: [][]storage.Value{
					{storage.IntValue(2)},
					{storage.IntValue(3)},
				},
			},
		},
	}
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT a0 FROM t0 LEFT JOIN t1 ON (k0 = k1)",
		"SELECT a0 FROM t0 JOIN t1 ON (k0 = k1)",
	} {
		if m := r.CheckSQL(sql); m != nil {
			t.Fatalf("%s", m.Reproducer())
		}
	}
}

// Regression: GROUP BY with more distinct groups than the optimizer
// predicted made the low-NDV in-pipeline group table overflow fatally
// ("ops: group table overflow") instead of adapting. A tautological filter
// shrank the row estimate (and with it maxGroups) while every row survived,
// so both RAPID modes failed and ForceOffload silently fell back. The
// runtime now retries with the partitioned high-NDV strategy.
func TestRegressGroupTableOverflowFallback(t *testing.T) {
	const n = 400
	rows := make([][]storage.Value, n)
	for i := 0; i < n; i++ {
		rows[i] = []storage.Value{storage.IntValue(int64(i % 20)), storage.IntValue(int64(i))}
	}
	sc := &Scenario{
		Seed: 0,
		Tables: []*Table{{
			Name: "t0",
			Cols: []Column{
				{Name: "k0", Kind: KInt, Type: coltypes.Int(), Hi: 20},
				{Name: "a0", Kind: KInt, Type: coltypes.Int(), Hi: 999},
			},
			Rows: rows,
		}},
	}
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	if m := r.CheckSQL("SELECT k0, a0, SUM(1) FROM t0 WHERE (a0 BETWEEN a0 AND a0) GROUP BY k0, a0"); m != nil {
		t.Fatalf("%s", m.Reproducer())
	}
}

// Regression: LEFT JOIN against an EMPTY build side with a string payload
// column panicked ("encoding: dict code 0 out of range"). Unmatched probe
// rows pad the build payload with code 0, which an empty dictionary cannot
// decode; both rendering the result and evaluating a string predicate over
// the padded rows in the host row interpreter hit Dict.Value. Out-of-range
// codes now decode as the empty string (the NULL-free engine's padding value).
func TestRegressEmptyBuildSideStringPayload(t *testing.T) {
	sc := &Scenario{
		Seed: 0,
		Tables: []*Table{
			{
				Name: "t0",
				Cols: []Column{
					{Name: "k0", Kind: KInt, Type: coltypes.Int(), Hi: 20},
					{Name: "b0", Kind: KStrLow, Type: coltypes.String(), Strs: []string{"cedar", "elm"}},
				},
				Rows: nil, // empty build side: its dictionary has no codes
			},
			{
				Name: "t1",
				Cols: []Column{
					{Name: "k1", Kind: KInt, Type: coltypes.Int(), Hi: 20},
					{Name: "a1", Kind: KInt, Type: coltypes.Int(), Hi: 99},
				},
				Rows: [][]storage.Value{
					{storage.IntValue(1), storage.IntValue(10)},
					{storage.IntValue(2), storage.IntValue(20)},
				},
			},
		},
	}
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT b0, a1 FROM t1 LEFT JOIN t0 ON (k1 = k0)",
		"SELECT a1 FROM t1 LEFT JOIN t0 ON (k1 = k0) WHERE ((b0 = 'cedar') OR (a1 <= 15))",
	} {
		if m := r.CheckSQL(sql); m != nil {
			t.Fatalf("%s", m.Reproducer())
		}
	}
}

// Regression: the binder pushed single-table WHERE conjuncts below the join
// unconditionally. For the nullable side of a LEFT JOIN that is wrong —
// filtering the build input first turns probe rows that lose their match
// into padded output rows instead of dropping them. Likewise a WHERE
// equality spanning the nullable side was merged into the join keys. Found
// by the TLP check (Q vs partition union on the same engine), so this pins
// exact row counts on the host lane rather than a cross-engine diff.
func TestRegressLeftJoinWherePushdown(t *testing.T) {
	sc := &Scenario{
		Seed: 0,
		Tables: []*Table{
			{
				Name: "t1",
				Cols: []Column{
					{Name: "k1", Kind: KInt, Type: coltypes.Int(), Hi: 20},
					{Name: "a1", Kind: KInt, Type: coltypes.Int(), Hi: 99},
				},
				Rows: [][]storage.Value{
					{storage.IntValue(1), storage.IntValue(7)},
					{storage.IntValue(5), storage.IntValue(9)},
				},
			},
			{
				Name: "t2",
				Cols: []Column{
					{Name: "k2", Kind: KInt, Type: coltypes.Int(), Hi: 20},
					{Name: "b2", Kind: KInt, Type: coltypes.Int(), Hi: 99},
				},
				Rows: [][]storage.Value{
					{storage.IntValue(5), storage.IntValue(8)},
				},
			},
		},
	}
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		sql  string
		rows int
	}{
		// Only the padded row (k2 = 0) passes NOT BETWEEN; pushing the
		// filter into t2 empties the build side and pads BOTH probe rows.
		{"SELECT k1, k2 FROM t1 LEFT JOIN t2 ON (k1 = k2) WHERE (NOT (k2 BETWEEN 2 AND 12))", 1},
		// a1 = b2 holds for no joined row (7 vs padding 0, 9 vs 8); merged
		// into the join keys it instead pads both rows and drops the filter.
		{"SELECT k1 FROM t1 LEFT JOIN t2 ON (k1 = k2) WHERE (a1 = b2)", 0},
	}
	for _, tc := range cases {
		if m := r.CheckSQL(tc.sql); m != nil {
			t.Fatalf("%s", m.Reproducer())
		}
		res, err := r.primary.Query(tc.sql, engines[0].opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if got := res.Rel.Rows(); got != tc.rows {
			t.Fatalf("%s: got %d rows, want %d", tc.sql, got, tc.rows)
		}
	}
}

// Regression companion for the parser EOF fix: predicates and IS NULL fold
// through the whole differential stack.
func TestRegressIsNullFolding(t *testing.T) {
	r, err := NewRunner(regressScenario())
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT a0 FROM t0 WHERE a0 IS NULL",
		"SELECT a0 FROM t0 WHERE a0 IS NOT NULL",
		"SELECT a0 FROM t0 WHERE (a0 + 1) IS NULL OR a0 > 15",
	} {
		if m := r.CheckSQL(sql); m != nil {
			t.Fatalf("%s", m.Reproducer())
		}
	}
}

// Shared aggregate states: qcomp computes each (kind, argument) state once,
// so an AVG reads the SUM and COUNT(*) a SUM or COUNT(*) beside it computes,
// on the single SoC's merge and in the tray's partials alike. Every mix of
// AVG, SUM and COUNT over one argument must still answer as the host does,
// grouped and scalar, over one SoC and trays of 1, 2 and 4 nodes.
func TestRegressSharedAggregateStates(t *testing.T) {
	rows := make([][]storage.Value, 64)
	for i := range rows {
		rows[i] = []storage.Value{storage.IntValue(int64(i % 5)), storage.IntValue(int64(i*7%31 + 1))}
	}
	sc := regressScenario()
	sc.Tables[0].Rows = rows
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.EnableTrays([]int{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT k0, AVG(a0), SUM(a0), COUNT(*), AVG(a0), COUNT(a0) FROM t0 GROUP BY k0",
		"SELECT SUM(a0), AVG(a0), COUNT(*), MIN(a0), AVG(a0 + 1), SUM(a0 + 1) FROM t0",
		"SELECT k0, COUNT(*), AVG(k0), SUM(k0), AVG(a0) FROM t0 WHERE a0 > 10 GROUP BY k0",
		"SELECT AVG(a0), SUM(a0), COUNT(*) FROM t0 WHERE a0 > 100",
	} {
		if m := r.CheckSQL(sql); m != nil {
			t.Fatalf("%s", m.Reproducer())
		}
	}
}

// Regression: COUNT(*) straight over a join reads none of the join's
// columns. Live columns gave such a join an empty output, whose relation has
// no rows on RAPID, so the count answered 0 on the SoC and in the tray's
// partials while the host counted the joined rows.
func TestRegressCountOverJoinReadsNoColumn(t *testing.T) {
	rows := make([][]storage.Value, 40)
	for i := range rows {
		rows[i] = []storage.Value{storage.IntValue(int64(i % 7)), storage.IntValue(int64(i))}
	}
	sc := regressScenario()
	sc.Tables[0].Rows = rows
	sc.Tables = append(sc.Tables, &Table{
		Name: "t1",
		Cols: []Column{
			{Name: "k1", Kind: KInt, Type: coltypes.Int(), Hi: 20},
			{Name: "a1", Kind: KInt, Type: coltypes.Int(), Hi: 99},
		},
		Rows: [][]storage.Value{
			{storage.IntValue(2), storage.IntValue(5)},
			{storage.IntValue(3), storage.IntValue(50)},
			{storage.IntValue(3), storage.IntValue(60)},
			{storage.IntValue(9), storage.IntValue(70)},
		},
	})
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.EnableTrays([]int{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT COUNT(*) FROM t0 JOIN t1 ON (k0 = k1)",
		"SELECT COUNT(*) FROM t0, t1 WHERE k0 = k1",
		"SELECT COUNT(*) FROM t0 JOIN t1 ON (k0 = k1) WHERE a1 > 10",
		"SELECT COUNT(*) FROM t0 LEFT JOIN t1 ON (k0 = k1)",
		"SELECT COUNT(*) FROM t0 WHERE k0 IN (SELECT k1 FROM t1)",
		"SELECT COUNT(*) FROM t0 WHERE k0 NOT IN (SELECT k1 FROM t1)",
		"SELECT COUNT(*) FROM t0 WHERE k0 IN (SELECT k1 FROM t1 WHERE a1 > 10)",
	} {
		if m := r.CheckSQL(sql); m != nil {
			t.Fatalf("%s", m.Reproducer())
		}
	}
}

// Regression: a Project of bare columns over a join, reordering, renaming
// or repeating its columns, is a header move over the join's output
// (qcomp.lowerPipeline): no pass reads and writes the join's rows again. The
// moved joins answer as the host does, on one SoC and on trays of 1, 2 and 4
// nodes.
func TestRegressBareProjectFoldsIntoJoin(t *testing.T) {
	rows := make([][]storage.Value, 40)
	for i := range rows {
		rows[i] = []storage.Value{storage.IntValue(int64(i % 7)), storage.IntValue(int64(i))}
	}
	sc := regressScenario()
	sc.Tables[0].Rows = rows
	sc.Tables = append(sc.Tables, &Table{
		Name: "t1",
		Cols: []Column{
			{Name: "k1", Kind: KInt, Type: coltypes.Int(), Hi: 20},
			{Name: "a1", Kind: KInt, Type: coltypes.Int(), Hi: 99},
		},
		Rows: [][]storage.Value{
			{storage.IntValue(2), storage.IntValue(5)},
			{storage.IntValue(3), storage.IntValue(50)},
			{storage.IntValue(3), storage.IntValue(60)},
			{storage.IntValue(9), storage.IntValue(70)},
		},
	})
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.EnableTrays([]int{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT a1, a0 FROM t0 JOIN t1 ON (k0 = k1)",
		"SELECT a1, k0, a0 FROM t0, t1 WHERE k0 = k1 AND a0 > 10",
		"SELECT a0, k0 FROM t0 WHERE k0 IN (SELECT k1 FROM t1)",
		"SELECT a1, a0 FROM t0 LEFT JOIN t1 ON (k0 = k1)",
		"SELECT a1 AS x, a0 FROM t0 JOIN t1 ON (k0 = k1)",
		"SELECT a1, a1, a0 FROM t0 JOIN t1 ON (k0 = k1)",
		"SELECT a1, a0 FROM t0 JOIN t1 ON (k0 = k1) ORDER BY a0, a1",
	} {
		if m := r.CheckSQL(sql); m != nil {
			t.Fatalf("%s", m.Reproducer())
		}
	}
}

// Regression: a consumer of a materialized relation that only selects or
// reorders its columns takes the relation's columns as they are
// (qcomp.lowerPipeline). Bare reorders and bare subsets over a join, a
// partitioned group-by (t0's g0 has 12,000 values), a group-by over a join, a
// sort and a top-k; on a tray also over exchange outputs: the gathered join
// results, the merged groups of a0 (no partition column) and a join on c1 and
// a0 (neither is one). The columns are stored at W1 (a0, c1), W2 (k0, k1)
// and W4 (g0, b0, d1). Every statement answers as the host does on one SoC
// (ModeX86, ModeDPU, the alternate layout) and on trays of 1, 2 and 4 nodes
// in both modes, and runs on the SoC with no Stream under a Collect: nothing
// is streamed only to be collected again. (The group-by over the join
// overflows its low-NDV table and re-groups partitioned over the join's
// output, the adaptation's header move.)
func TestRegressHeaderMoves(t *testing.T) {
	t0 := make([][]storage.Value, 12000)
	for i := range t0 {
		t0[i] = []storage.Value{
			storage.IntValue(int64(i%3000 - 1500)),
			storage.IntValue(int64(i*100 - 600000)),
			storage.IntValue(int64(i % 100)),
			storage.IntValue(int64(i*7919%2000003 - 1000000)),
		}
	}
	t1 := make([][]storage.Value, 2000)
	for i := range t1 {
		t1[i] = []storage.Value{
			storage.IntValue(int64(i - 1000)),
			storage.IntValue(int64(i % 50)),
			storage.IntValue(int64(i*1000 - 1000000)),
		}
	}
	sc := &Scenario{Tables: []*Table{{
		Name: "t0",
		Cols: []Column{
			{Name: "k0", Kind: KInt, Type: coltypes.Int(), Hi: 1500},
			{Name: "g0", Kind: KInt, Type: coltypes.Int(), Hi: 600000},
			{Name: "a0", Kind: KInt, Type: coltypes.Int(), Hi: 100},
			{Name: "b0", Kind: KInt, Type: coltypes.Int(), Hi: 1000000},
		},
		Rows: t0,
	}, {
		Name: "t1",
		Cols: []Column{
			{Name: "k1", Kind: KInt, Type: coltypes.Int(), Hi: 1000},
			{Name: "c1", Kind: KInt, Type: coltypes.Int(), Hi: 50},
			{Name: "d1", Kind: KInt, Type: coltypes.Int(), Hi: 1000000},
		},
		Rows: t1,
	}}}
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.EnableTrays([]int{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT c1, a0, k0 FROM t0 JOIN t1 ON (k0 = k1)",
		"SELECT d1 FROM t0 JOIN t1 ON (k0 = k1)",
		"SELECT b0 AS x, g0, b0 FROM t0 JOIN t1 ON (k0 = k1)",
		"SELECT b0, k0 FROM t0 WHERE k0 IN (SELECT k1 FROM t1 WHERE c1 < 10)",
		"SELECT MAX(b0), g0 FROM t0 GROUP BY g0",
		"SELECT COUNT(*) FROM t0 GROUP BY g0",
		"SELECT SUM(d1), g0 FROM t0 JOIN t1 ON (k0 = k1) GROUP BY g0",
		"SELECT SUM(b0), a0 FROM t0 GROUP BY a0",
		"SELECT d1, k0 FROM t0 JOIN t1 ON (k0 = k1) ORDER BY k0, d1",
		"SELECT g0, a0 FROM t0 ORDER BY a0, g0 LIMIT 40",
		"SELECT MIN(b0), g0 FROM t0 GROUP BY g0 ORDER BY g0 LIMIT 25",
		"SELECT k1, g0 FROM t0 JOIN t1 ON (a0 = c1)",
	} {
		if m := r.CheckSQL(sql); m != nil {
			t.Fatalf("%s", m.Reproducer())
		}
		if m := checkTraysDPU(r, sql); m != nil {
			t.Fatalf("%s", m.Reproducer())
		}
		res, err := r.primary.Query(sql, engines[2].opts)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		ops := res.Profile.Summary().Ops
		for _, op := range ops {
			if op.Name != "Stream" {
				continue
			}
			up := ops[op.Parent]
			for up.Name == "Project" {
				up = ops[up.Parent]
			}
			if up.Name == "Collect" {
				t.Errorf("%s: the SoC re-streams a materialized relation (span %d, %d rows)", sql, op.ID, op.RowsOut)
			}
		}
	}
}

// Regression: the bit-vector join filter. Each statement joins a 60,000-row
// t0 with a 100,000-row t1 whose filter the compiler prices at 0.3 of the
// table (an expression compare) while it keeps a few hundred rows or none, so
// the join's build side is planned large, partitioned in software rounds, and
// small when it runs: the filter arms and drops the t0 rows whose key is not
// in it. Inner and semi joins, one and two keys, duplicate build keys and an
// empty build side answer as the host does, on one SoC and on trays of 1, 2
// and 4 nodes; joins the rule leaves unarmed answer too. The SoC's dropped-row
// counter shows which joins armed.
func TestRegressJoinFilter(t *testing.T) {
	t0 := make([][]storage.Value, 60000)
	for i := range t0 {
		t0[i] = []storage.Value{storage.IntValue(int64(i % 30000)), storage.IntValue(int64(i % 97)), storage.IntValue(int64(i % 5))}
	}
	t1 := make([][]storage.Value, 100000)
	for i := range t1 {
		// k1 holds every key twice (i and i+50000 share it and their a1),
		// u1 every key once.
		t1[i] = []storage.Value{storage.IntValue(int64(i % 50000)), storage.IntValue(int64(i % 1000)), storage.IntValue(int64(i % 5)), storage.IntValue(int64(i))}
	}
	sc := &Scenario{Tables: []*Table{
		{Name: "t0", Cols: []Column{
			{Name: "k0", Kind: KInt, Type: coltypes.Int(), Hi: 30000},
			{Name: "a0", Kind: KInt, Type: coltypes.Int(), Hi: 97},
			{Name: "b0", Kind: KInt, Type: coltypes.Int(), Hi: 5},
		}, Rows: t0},
		{Name: "t1", Cols: []Column{
			{Name: "k1", Kind: KInt, Type: coltypes.Int(), Hi: 50000},
			{Name: "a1", Kind: KInt, Type: coltypes.Int(), Hi: 1000},
			{Name: "b1", Kind: KInt, Type: coltypes.Int(), Hi: 5},
			{Name: "u1", Kind: KInt, Type: coltypes.Int(), Hi: 100000},
		}, Rows: t1},
	}}
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.EnableTrays([]int{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	const counter = "ops_join_filter_dropped_rows_total"
	for _, c := range []struct {
		sql   string
		armed bool
	}{
		{"SELECT k0, a0, b1 FROM t0 JOIN t1 ON (k0 = u1) WHERE a1 + 0 < 3", true},
		{"SELECT k0, a0, b1 FROM t0 JOIN t1 ON (k0 = k1) WHERE a1 + 0 < 3", true},
		{"SELECT a0, k0 FROM t0 WHERE k0 IN (SELECT u1 FROM t1 WHERE a1 + 0 < 3)", true},
		{"SELECT a0, k0 FROM t0 WHERE k0 IN (SELECT k1 FROM t1 WHERE a1 + 0 < 3)", true},
		{"SELECT k0, b0, a1 FROM t0 JOIN t1 ON (k0 = u1 AND b0 = b1) WHERE a1 + 0 < 3", true},
		{"SELECT COUNT(*), SUM(a0) FROM t0 JOIN t1 ON (k0 = k1) WHERE a1 + 0 < 0", true},
		{"SELECT COUNT(*) FROM t0 WHERE k0 IN (SELECT k1 FROM t1 WHERE a1 + 0 < 0)", true},
		{"SELECT COUNT(*), SUM(a1) FROM t0 JOIN t1 ON (k0 = k1) WHERE a1 < 3", false},
		{"SELECT COUNT(*), SUM(a1) FROM t0 JOIN t1 ON (k0 = k1)", false},
		{"SELECT COUNT(*) FROM t0 WHERE k0 NOT IN (SELECT k1 FROM t1 WHERE a1 + 0 < 3)", false},
	} {
		before := r.primary.Metrics().Values()[counter]
		if m := r.CheckSQL(c.sql); m != nil {
			t.Fatalf("%s", m.Reproducer())
		}
		if m := r.CheckTrayFragments(c.sql, 2); m != nil {
			t.Fatalf("%s", m.Reproducer())
		}
		if dropped := r.primary.Metrics().Values()[counter] - before; (dropped > 0) != c.armed {
			t.Errorf("%s: the SoC's join filters dropped %d rows, want armed = %v", c.sql, dropped, c.armed)
		}
	}
}

// Regression: the join filter schedule. Chains of 3 to 5 joins — inner,
// semi, anti and left outer — over a 60,000-row fact t0, a 100,000-row t1
// whose keys repeat, and three small dimensions, each filtered by an
// expression compare the compiler prices at 0.3 of the table while it keeps a
// tenth, a third, every row or none. The filters of the joins high in a chain
// are tested in the scans below them (t1 on c1, t2 on n2, t3 on n3, t0 on
// s0), where the rows reach their join unchanged; none moves into the
// null-supplying side of a left outer join (whose padded rows, key 0, match
// the dimensions' key 0) or is filled by an anti join. Each statement answers
// as the host does on one SoC (ModeX86 and ModeDPU) and on trays of 1, 2 and
// 4 nodes in both modes; the SoC's EXPLAIN names the scans that tested an
// armed filter.
func TestRegressJoinFilterChains(t *testing.T) {
	t0 := make([][]storage.Value, 120000)
	for i := range t0 {
		// k0 holds every key three times, a quarter of them not in t1.
		t0[i] = []storage.Value{storage.IntValue(int64(i % 40000)), storage.IntValue(int64(i % 500)), storage.IntValue(int64(i % 97))}
	}
	t1 := make([][]storage.Value, 100000)
	for i := range t1 {
		// k1 holds most keys three times; u1 is even, so t0's odd k0 match
		// none.
		t1[i] = []storage.Value{storage.IntValue(int64(i % 30000)), storage.IntValue(int64(i * 7 % 2000)), storage.IntValue(int64(i % 1000)), storage.IntValue(int64(2 * i))}
	}
	dim := func(n int, cols func(i int) []int64) [][]storage.Value {
		rows := make([][]storage.Value, n)
		for i := range rows {
			for _, v := range cols(i) {
				rows[i] = append(rows[i], storage.IntValue(v))
			}
		}
		return rows
	}
	intCol := func(name string, hi int64) Column {
		return Column{Name: name, Kind: KInt, Type: coltypes.Int(), Hi: hi}
	}
	sc := &Scenario{Tables: []*Table{
		{Name: "t0", Cols: []Column{intCol("k0", 40000), intCol("s0", 500), intCol("a0", 97)}, Rows: t0},
		{Name: "t1", Cols: []Column{intCol("k1", 30000), intCol("c1", 2000), intCol("a1", 1000), intCol("u1", 200000)}, Rows: t1},
		{Name: "t2", Cols: []Column{intCol("c2", 2000), intCol("n2", 25), intCol("a2", 10)},
			Rows: dim(2000, func(i int) []int64 { return []int64{int64(i), int64(i % 25), int64(i % 10)} })},
		{Name: "t3", Cols: []Column{intCol("s3", 500), intCol("n3", 25), intCol("a3", 7)},
			Rows: dim(500, func(i int) []int64 { return []int64{int64(i), int64(i * 3 % 25), int64(i % 7)} })},
		{Name: "t4", Cols: []Column{intCol("n4", 25), intCol("r4", 5), intCol("a4", 3)},
			Rows: dim(25, func(i int) []int64 { return []int64{int64(i), int64(i % 5), int64(i % 3)} })},
	}}
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.EnableTrays([]int{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	// armed names the scans that test an armed filter on the SoC, and the
	// columns each tests.
	for _, c := range []struct {
		sql   string
		armed []string
	}{
		{"SELECT COUNT(*), SUM(a0) FROM t0 JOIN t1 ON (k0 = k1) JOIN t2 ON (c1 = c2) JOIN t4 ON (n2 = n4) WHERE a4 + 0 < 1",
			[]string{"t1 (c1 = c2)", "t2 (n2 = n4)"}},
		{"SELECT COUNT(*), SUM(a0) FROM t0 JOIN t1 ON (k0 = k1) JOIN t2 ON (c1 = c2) JOIN t4 ON (n2 = n4) WHERE a4 + 0 < 3", nil},
		{"SELECT COUNT(*), SUM(a0) FROM t0 JOIN t1 ON (k0 = k1) JOIN t2 ON (c1 = c2) JOIN t4 ON (n2 = n4) WHERE a4 + 0 < 0",
			[]string{"t0 (k0 = k1)", "t1 (c1 = c2)", "t2 (n2 = n4)"}},
		{"SELECT COUNT(*), SUM(a1) FROM t0 JOIN t1 ON (k0 = k1) JOIN t3 ON (s0 = s3) JOIN t4 ON (n3 = n4) JOIN t2 ON (c1 = c2 AND n4 = n2) WHERE a4 + 0 < 1", nil},
		{"SELECT COUNT(*), SUM(a0) FROM t0 JOIN t3 ON (s0 = s3) JOIN t4 ON (n3 = n4) WHERE k0 IN (SELECT k1 FROM t1 WHERE a1 + 0 < 3) AND a4 + 0 < 1",
			[]string{"t0 (s0 = s3)", "t0 (k0 = k1)", "t3 (n3 = n4)"}},
		{"SELECT COUNT(*), SUM(a0) FROM t0 JOIN t1 ON (k0 = k1) WHERE c1 IN (SELECT c2 FROM t2 WHERE a2 + 0 < 1) AND s0 IN (SELECT s3 FROM t3 WHERE a3 + 0 < 2)", nil},
		{"SELECT COUNT(*), SUM(a0) FROM t0 JOIN t1 ON (k0 = k1) JOIN t3 ON (s0 = s3) WHERE k0 NOT IN (SELECT u1 FROM t1 WHERE a1 + 0 < 3) AND a3 + 0 < 1",
			[]string{"t0 (s0 = s3)"}},
		{"SELECT COUNT(*), SUM(a0) FROM t0 JOIN t3 ON (s0 = s3) JOIN t4 ON (n3 = n4) WHERE k0 NOT IN (SELECT k1 FROM t1 WHERE a1 + 0 < 500) AND a4 + 0 < 1",
			[]string{"t0 (s0 = s3)", "t3 (n3 = n4)"}},
		{"SELECT COUNT(*), SUM(a1) FROM t0 LEFT JOIN t1 ON (k0 = u1) JOIN t2 ON (c1 = c2) JOIN t4 ON (n2 = n4) WHERE a4 + 0 < 1", nil},
		{"SELECT COUNT(*), SUM(a0) FROM t0 LEFT JOIN t2 ON (k0 = c2) JOIN t3 ON (s0 = s3) JOIN t4 ON (n3 = n4) WHERE a4 + 0 < 1", nil},
		{"SELECT COUNT(*), SUM(a0) FROM t0 JOIN t1 ON (k0 = k1) JOIN t2 ON (c1 = c2) JOIN t3 ON (s0 = s3) JOIN t4 ON (n3 = n4) WHERE k0 NOT IN (SELECT u1 FROM t1 WHERE a1 + 0 < 1) AND a4 + 0 < 1 AND a2 + 0 < 5",
			[]string{"t0 (s0 = s3)", "t3 (n3 = n4)", "t1 (c1 = c2)"}},
	} {
		if m := r.CheckSQL(c.sql); m != nil {
			t.Fatalf("%s", m.Reproducer())
		}
		if m := checkTraysDPU(r, c.sql); m != nil {
			t.Fatalf("%s", m.Reproducer())
		}
		res, err := r.primary.Query(c.sql, engines[2].opts)
		if err != nil {
			t.Fatal(err)
		}
		var armed []string
		ops := res.Profile.Summary().Ops
		for i, op := range ops {
			cols, ok := strings.CutSuffix(op.Detail, ", off)")
			if op.Name != "JoinFilter" || ok {
				continue
			}
			cols, _, _ = strings.Cut(cols, ", bits=")
			for _, scan := range ops[i+1:] {
				if table, ok := strings.CutPrefix(scan.Name, "Scan("); ok {
					armed = append(armed, strings.TrimSuffix(table, ")")+" "+cols+")")
					break
				}
			}
		}
		if !slices.Equal(armed, c.armed) {
			t.Errorf("%s: armed join filters %q, want %q", c.sql, armed, c.armed)
		}
	}
}

// Regression: each operator evaluates one expression program, with
// repeated subexpressions shared and constants folded at compile time. The
// statements repeat subexpressions across aggregates, projections, CASE arms
// and conditions, and filters, and put decimal constants at scale
// boundaries (1 - x, x * 1.5, x / 3, a zero divisor, constant-only
// arithmetic over negative values). Each answers as the host does on one SoC
// (ModeX86 and ModeDPU) and on trays of 1, 2 and 4 nodes in both modes. The
// u0 groups outnumber the low-NDV group table, so those statements take the
// partitioned group-by.
func TestRegressSharedExprs(t *testing.T) {
	rows := make([][]storage.Value, 6000)
	dec := func(v int64, scale int8) storage.Value {
		return storage.DecValue(encoding.Decimal{Unscaled: v, Scale: scale})
	}
	for i := range rows {
		rows[i] = []storage.Value{
			storage.IntValue(int64(i % 7)),
			dec(int64(i*37%2000)-700, 2),
			dec(int64(i%9)-2, 1),
			storage.IntValue(int64(i%23) - 11),
			storage.IntValue(int64(i)),
		}
	}
	sc := &Scenario{Tables: []*Table{{
		Name: "t0",
		Cols: []Column{
			{Name: "k0", Kind: KInt, Type: coltypes.Int(), Hi: 7},
			{Name: "a0", Kind: KDec, Type: coltypes.Decimal(2), Hi: 2000},
			{Name: "b0", Kind: KDec, Type: coltypes.Decimal(1), Hi: 9},
			{Name: "c0", Kind: KInt, Type: coltypes.Int(), Hi: 23},
			{Name: "u0", Kind: KInt, Type: coltypes.Int(), Hi: 6000},
		},
		Rows: rows,
	}}}
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.EnableTrays([]int{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT k0, SUM(a0 * (1 - b0)), SUM(a0 * (1 - b0) * (1 + c0)), AVG(b0), SUM(CASE WHEN a0 > 5 THEN a0 * (1 - b0) ELSE b0 END) FROM t0 GROUP BY k0",
		"SELECT SUM(a0 * (1 - b0)), SUM(a0 * (1 - b0) * (1 + c0)), AVG(b0), MIN(1 - a0), MAX(c0 / 3), SUM(c0 / 3), COUNT(*) FROM t0 WHERE a0 * (1 - b0) > 0",
		"SELECT a0 * 1.5, a0 * 1.5 + 1, 1 - a0, (1 - a0) * (1 - a0), c0 / 3, a0 / 3, CASE WHEN c0 / 3 > 1 THEN c0 / 3 ELSE 1 - a0 END, u0 FROM t0 WHERE u0 < 500",
		"SELECT k0, SUM(CASE WHEN a0 * (1 - b0) > 1 THEN a0 * (1 - b0) ELSE 0 END), SUM(CASE WHEN a0 * (1 - b0) > 1 THEN 1 ELSE 0 END), SUM(CASE WHEN b0 < 0 THEN 1 ELSE 0 END) FROM t0 WHERE c0 / 3 < 2 AND a0 * 1.5 > 0 - 5 GROUP BY k0",
		"SELECT k0, SUM((1 + 2) * c0), SUM(c0 / 0), SUM(10 / 4 + a0), SUM((0 - 1) / 3 * c0), SUM((0 - 7) / 2 + c0 * 0.5) FROM t0 GROUP BY k0",
		"SELECT u0, SUM(a0 * (1 - b0)), SUM(a0 * (1 - b0) * (1 + c0)), AVG(a0 / 3), SUM(CASE WHEN c0 > 0 THEN 1 - a0 ELSE a0 * 1.5 END) FROM t0 GROUP BY u0",
		"SELECT u0, k0, a0 * (1 - b0) AS d FROM t0 WHERE a0 * (1 - b0) < 0 - 1 AND a0 * (1 - b0) > 0 - 300",
	} {
		if m := r.CheckSQL(sql); m != nil {
			t.Fatalf("%s", m.Reproducer())
		}
		if m := checkTraysDPU(r, sql); m != nil {
			t.Fatalf("%s", m.Reproducer())
		}
	}
}

// checkTraysDPU compares every tray lane's ModeDPU answer with the host's
// (CheckSQL runs the trays in ModeX86).
func checkTraysDPU(r *Runner, sql string) *Mismatch {
	host, err := r.primary.Query(sql, engines[0].opts)
	if err != nil {
		return r.mismatch("differential", sql, fmt.Sprintf("host failed: %v", err))
	}
	want := bag(host.Rel)
	for _, tl := range r.trays {
		res, err := tl.tray.Query(sql, cluster.QueryOptions{Mode: qef.ModeDPU})
		if err != nil {
			return r.mismatch("differential", sql, fmt.Sprintf("tray%d/dpu failed: %v", tl.nodes, err))
		}
		if d := diffBags(want, bag(res.Rel)); d != "" {
			return r.mismatch("differential", sql, fmt.Sprintf("host vs tray%d/dpu: %s", tl.nodes, d))
		}
	}
	return nil
}

// Regression: a partitioned group-by over a scan whose zone maps bound its
// keys pre-aggregates each scan unit (ops.PreAggOp) and merges the states.
// t0 is stored in k0 order, 8 rows a key from -3000 on with every fifth key
// missing, reloaded on the primary in 512-row chunks so that one key (64
// slots a chunk) and k0 with c0 (128) both arm; the alternate layout's 7-row
// chunks arm too. Each
// statement — HAVING, every aggregate kind, a filter first, two keys in
// either order — answers as the host does on one SoC (ModeX86 and ModeDPU)
// and on trays of 1, 2 and 4 nodes in both modes, before and after DML that
// takes a chunk's key zone away (an update of k0), leaves superset zones
// (deletes) or adds the insert delta chunk, and read at the pre-DML SCN.
func TestRegressPreAgg(t *testing.T) {
	rows := make([][]storage.Value, 48000)
	for i := range rows {
		// Every fifth key is missing: its slot stays empty.
		key := i / 8
		if key%5 == 0 {
			key++
		}
		rows[i] = []storage.Value{
			storage.IntValue(int64(key - 3000)),
			storage.IntValue(int64(i % 2)),
			storage.IntValue(int64(i*37%2001 - 1000)),
			storage.IntValue(int64(i % 7)),
		}
	}
	sc := &Scenario{Tables: []*Table{{
		Name: "t0",
		Cols: []Column{
			{Name: "k0", Kind: KInt, Type: coltypes.Int(), Hi: 3000},
			{Name: "c0", Kind: KInt, Type: coltypes.Int(), Hi: 2},
			{Name: "a0", Kind: KInt, Type: coltypes.Int(), Hi: 1000},
			{Name: "b0", Kind: KInt, Type: coltypes.Int(), Hi: 7},
		},
		Rows: rows,
	}}}
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.primary.Load("t0", hostdb.LoadOptions{ChunkRows: 512}); err != nil {
		t.Fatal(err)
	}
	if err := r.EnableTrays([]int{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	// armed: the step arms on the primary. Three states over two keys and
	// four scanned columns leave 23 slots beside its 256-row tiles, where
	// its chunks need about 128; five states over three columns leave 63,
	// which the chunks that start at a missing key fit.
	stmts := []struct {
		sql   string
		armed bool
	}{
		{"SELECT k0 FROM t0 GROUP BY k0 HAVING SUM(a0) > 2000", true},
		{"SELECT k0, MIN(a0) FROM t0 GROUP BY k0", true},
		{"SELECT k0, MAX(a0) FROM t0 GROUP BY k0 HAVING MAX(a0) < 900", true},
		{"SELECT k0, COUNT(a0) FROM t0 GROUP BY k0", true},
		{"SELECT k0, COUNT(*) FROM t0 GROUP BY k0", true},
		{"SELECT k0, AVG(a0) FROM t0 GROUP BY k0", true},
		{"SELECT k0, MIN(a0), AVG(a0), COUNT(*) FROM t0 WHERE b0 < 3 GROUP BY k0", true},
		{"SELECT c0, k0, AVG(a0) FROM t0 WHERE b0 > 4 GROUP BY c0, k0 HAVING COUNT(*) > 0", true},
		{"SELECT c0, k0 FROM t0 GROUP BY c0, k0", true},
		{"SELECT k0, SUM(a0), MIN(a0), MAX(a0), COUNT(a0), COUNT(*), AVG(a0) FROM t0 WHERE b0 < 6 GROUP BY k0", true},
		{"SELECT k0, c0, SUM(a0), COUNT(*), MAX(a0) FROM t0 WHERE b0 <> 2 GROUP BY k0, c0", false},
	}
	check := func(when string) {
		t.Helper()
		for _, s := range stmts {
			if m := r.CheckSQL(s.sql); m != nil {
				t.Fatalf("%s: %s", when, m.Reproducer())
			}
			if m := checkTraysDPU(r, s.sql); m != nil {
				t.Fatalf("%s: %s", when, m.Reproducer())
			}
			res, err := r.primary.Query(s.sql, engines[2].opts)
			if err != nil {
				t.Fatalf("%s: %s: %v", when, s.sql, err)
			}
			armed := false
			for _, op := range res.Profile.Summary().Ops {
				armed = armed || op.Name == "PreAgg"
			}
			if armed != s.armed {
				t.Errorf("%s: %s: pre-aggregation on the SoC %v, want %v", when, s.sql, armed, s.armed)
			}
		}
	}
	check("as loaded")

	d := &dmlDriver{r: r}
	dml := func(what string, op func(db *hostdb.Database) error) {
		t.Helper()
		if err := d.both(what, op); err != nil {
			t.Fatal(err)
		}
		if err := d.checkpointAll(); err != nil {
			t.Fatal(err)
		}
	}
	// An update of the key takes its chunk's k0 zone away: the chunk passes
	// through, with a key far outside every other chunk's.
	dml("update k0", func(db *hostdb.Database) error {
		if _, err := db.Update("t0", 700, 0, storage.IntValue(99999)); err != nil {
			return err
		}
		_, err := db.Update("t0", 701, 2, storage.IntValue(-5))
		return err
	})
	check("after an update")
	// Deleted rows keep their chunks' zones, a superset of the live keys.
	dml("delete", func(db *hostdb.Database) error {
		for h := 5000; h < 5600; h += 3 {
			if _, err := db.Delete("t0", h); err != nil {
				return err
			}
		}
		return nil
	})
	check("after deletes")
	// Inserted rows land in the delta chunk, which has no zone.
	dml("insert", func(db *hostdb.Database) error {
		_, err := db.Insert("t0", [][]storage.Value{
			{storage.IntValue(-3000), storage.IntValue(1), storage.IntValue(500), storage.IntValue(0)},
			{storage.IntValue(4000), storage.IntValue(0), storage.IntValue(-7), storage.IntValue(6)},
		})
		return err
	})
	check("after inserts")
	// A plan bound before more DML reads its own snapshot.
	for _, s := range stmts {
		mutate := func() error {
			if err := d.both("update k0", func(db *hostdb.Database) error {
				_, err := db.Update("t0", 30000, 0, storage.IntValue(-4000))
				return err
			}); err != nil {
				return err
			}
			return d.checkpointAll()
		}
		if m := d.checkOldPlan(s.sql, mutate); m != nil {
			t.Fatalf("%s", m.Reproducer())
		}
	}
}
