package qcomp_test

import (
	"slices"
	"testing"

	"rapid/internal/hostdb"
	"rapid/internal/qef"
	"rapid/internal/tpch"
)

// TestTPCHJoinFilterDecisions pins which TPC-H joins arm their bit-vector
// filter at SF 0.05, the benchmark's scale, as EXPLAIN ANALYZE names them: a
// probe side that may take a filter shows a JoinFilter row, "off" or with the
// filter's size. Armed: Q3's and Q5's lineitem joins, both of Q18's joins and
// Q21lite's, each partitioned in a software round after the DMS's, whose
// reads of the dropped rows pay for the filter's. Off: Q4, whose build side
// holds as many keys as the probe keys have values (pass fraction 1). No
// step: the joins of Q10, Q12, Q14 and Q19, partitioned in one round, where
// no dropped row gives back the DMS reads that placing a filter costs. The
// dropped rows counter adds up what the armed filters dropped.
func TestTPCHJoinFilterDecisions(t *testing.T) {
	db := hostdb.New()
	defer db.Close()
	if err := tpch.PopulateHostDB(db, tpch.Config{ScaleFactor: 0.05, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"Q1":      nil,
		"Q3":      {"(keys=1, bits=65536)"},
		"Q4":      {"(keys=1, off)"},
		"Q5":      {"(keys=1, bits=131072)"},
		"Q6":      nil,
		"Q10":     nil,
		"Q12":     nil,
		"Q14":     nil,
		"Q18":     {"(keys=1, bits=32768)", "(keys=1, bits=32768)"},
		"Q19":     nil,
		"Q21lite": {"(keys=1, bits=32768)"},
	}
	const counter = "ops_join_filter_dropped_rows_total"
	for _, q := range tpch.Queries() {
		before := db.Metrics().Values()[counter]
		res, err := db.Query(q.SQL, hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeDPU, Profile: true, NoCache: true})
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		var got []string
		var dropped int64
		for _, op := range res.Profile.Summary().Ops {
			if op.Name == "JoinFilter" {
				got = append(got, op.Detail)
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
