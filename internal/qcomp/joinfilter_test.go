package qcomp_test

import (
	"slices"
	"strings"
	"testing"

	"rapid/internal/hostdb"
	"rapid/internal/qef"
	"rapid/internal/tpch"
)

// TestTPCHJoinFilterDecisions pins the join filter schedule of the TPC-H
// statements at SF 0.05, the benchmark's scale, as EXPLAIN ANALYZE names it:
// each JoinFilter row, under the table its pipeline scans, tests a column
// against the build key of the join that fills it, "off" or with the filter's
// size.
//   - Filters tested below the join that fills them: Q3's orders on
//     o_custkey (the customer join above lineitem's), Q21lite's supplier on
//     s_nationkey and lineitem on l_suppkey, Q5's chain region → nation →
//     supplier → lineitem. Each of those build sides runs first, narrowed by
//     the filters of the joins above it.
//   - The one-edge cases, as before the schedule: Q18's two joins armed; Q4
//     off, whose build side holds as many keys as the probe keys have values.
//   - No step: Q10, Q12, Q14 and Q19, whose joins partition in one round and
//     feed no join that a narrowed build would help; Q18's customer join,
//     whose build side is the whole customer table and passes every orders row.
//
// The dropped rows counter adds up what the armed filters dropped.
func TestTPCHJoinFilterDecisions(t *testing.T) {
	db := hostdb.New()
	defer db.Close()
	if err := tpch.PopulateHostDB(db, tpch.Config{ScaleFactor: 0.05, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"Q1": nil,
		"Q3": {"lineitem (l_orderkey = o_orderkey, bits=131072)", "orders (o_custkey = c_custkey, bits=16384)"},
		"Q4": {"orders (o_orderkey = l_orderkey, off)"},
		"Q5": {"lineitem (l_suppkey = s_suppkey, bits=2048)", "lineitem (l_orderkey = o_orderkey, bits=131072)",
			"supplier (s_nationkey = n_nationkey, bits=2048)", "nation (n_regionkey = r_regionkey, bits=2048)"},
		"Q6":  nil,
		"Q10": nil,
		"Q12": nil,
		"Q14": nil,
		"Q18": {"lineitem (l_orderkey = o_orderkey, bits=32768)", "orders (o_orderkey = l_orderkey, bits=32768)"},
		"Q19": nil,
		"Q21lite": {"lineitem (l_suppkey = s_suppkey, bits=2048)", "lineitem (l_orderkey = o_orderkey, bits=32768)",
			"supplier (s_nationkey = n_nationkey, bits=2048)"},
	}
	const counter = "ops_join_filter_dropped_rows_total"
	for _, q := range tpch.Queries() {
		before := db.Metrics().Values()[counter]
		res, err := db.Query(q.SQL, hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeDPU, Profile: true, NoCache: true})
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		ops := res.Profile.Summary().Ops
		// scanBelow names the table of the first scan under span id.
		scanBelow := func(id int) string {
			for _, op := range ops[id+1:] {
				if name, ok := strings.CutPrefix(op.Name, "Scan("); ok {
					return strings.TrimSuffix(name, ")")
				}
			}
			return "?"
		}
		var got []string
		var dropped int64
		for _, op := range ops {
			if op.Name == "JoinFilter" {
				got = append(got, scanBelow(op.ID)+" "+op.Detail)
				dropped += op.RowsIn - op.RowsOut
			}
		}
		if !slices.Equal(got, want[q.Name]) {
			t.Errorf("%s: join filters %q, want %q", q.Name, got, want[q.Name])
		}
		if c := db.Metrics().Values()[counter] - before; c != dropped {
			t.Errorf("%s: %s rose by %d, the JoinFilter rows dropped %d", q.Name, counter, c, dropped)
		}
	}
}
