package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"rapid/internal/tpch"
)

// Data set shared by every workload. FROZEN together with the statement
// sets below: changing any of them re-bases every recorded number.
const (
	scaleFactor = 0.05 // lineitem ≈ 300 k rows
	dataSeed    = 2018
	trayNodes   = 4
)

// htap_refresh round shape: a write phase of htapUpdates single-cell updates
// and htapInserts appended rows on lineitem, checkpointed (≈ 1 % of the round
// at HEAD — the re-executions it forces are the rest), then htapClients
// closed-loop readers each issuing the statement set htapReps times.
const (
	htapUpdates = 512
	htapInserts = 64
	htapClients = 2
	htapReps    = 4
)

// engineKind selects the system under test and its public entry point.
type engineKind int

const (
	engineSoC    engineKind = iota // hostdb, ForceOffload, ModeX86, cache off
	engineTray                     // cluster.Tray over the same host database
	enginePublic                   // rapid.DB at defaults: cache on, EngineRapidX86
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	name    string
	engine  engineKind
	queries []string // TPC-H query names, statement order before seeding
	htap    bool     // rounds with a write phase and concurrent readers
	why     string   // one line, recorded in BENCHMARK.json; README.md has the long form
}

var workloads = []workloadDef{
	{name: "scan_agg", engine: engineSoC, queries: []string{"Q1", "Q4", "Q6", "Q12", "Q14", "Q19"},
		why: "scan-filter-project-group-by tile loop does almost all the work on one SoC; partitioned joins, cluster and qcache do none"},
	{name: "join_heavy", engine: engineSoC, queries: []string{"Q3", "Q5", "Q10", "Q18", "Q21lite"},
		why: "partition/build/probe/materialise of HashJoin and partopt dominate on one SoC; the scan tile loop is a minor share"},
	{name: "tray4", engine: engineTray, queries: []string{"Q1", "Q3", "Q4", "Q5", "Q6", "Q10", "Q12", "Q14", "Q18", "Q19", "Q21lite"},
		why: "4-node tray: per-node planning, shuffle/broadcast/gather and the coordinator merge sit on every query; operators run at a quarter of the rows"},
	{name: "htap_refresh", engine: enginePublic, htap: true,
		queries: []string{"Q6@1993", "Q6@1994", "Q6@1995", "Q6@1996", "Q1", "Q12", "Q14", "CUST"},
		why:     "public rapid.DB with the cache on, 2 clients, writes beside reads: ~89 % result-cache hits, one re-execution per lineitem statement per round after DML and checkpoint"},
}

func workloadByName(name string) (*workloadDef, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// statement is one generated SQL statement of a workload.
type statement struct {
	name string
	sql  string
	// lineitem reports whether the statement reads lineitem, the only table
	// htap_refresh writes: those statements go stale every round, the rest
	// must stay result-cache hits.
	lineitem bool
}

// custSQL is the htap_refresh statement over a table no write ever touches.
const custSQL = `
SELECT c_mktsegment, COUNT(*) AS customers, SUM(c_acctbal) AS balance
FROM customer
GROUP BY c_mktsegment
ORDER BY c_mktsegment`

// dateWindow names, per TPC-H query, the date literal that opens its
// selection window. The seed slides every window start by 0–27 days: results
// and cache keys differ per seed while selectivity — and so the work — stays
// within a fraction of a percent.
var dateWindow = map[string]string{
	"Q3": "1995-03-01", "Q4": "1993-07-01", "Q5": "1994-01-01", "Q6": "1994-01-01",
	"Q10": "1993-10-01", "Q12": "1994-01-01", "Q14": "1995-09-01",
}

// baseLiteral is the literal the repository's query text carries where
// dateWindow differs from it (Q3 is the only one: its text says 03-15).
var baseLiteral = map[string]string{"Q3": "1995-03-15"}

// buildStatements generates the workload's statements from the seed. The
// engine only ever sees the SQL text produced here.
func buildStatements(w *workloadDef, seed int64) ([]statement, error) {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	out := make([]statement, 0, len(w.queries))
	for _, qn := range w.queries {
		if qn == "CUST" {
			out = append(out, statement{name: qn, sql: custSQL})
			continue
		}
		base, year, _ := strings.Cut(qn, "@")
		q, ok := tpch.QueryByName(base)
		if !ok {
			return nil, fmt.Errorf("workload %s: unknown TPC-H query %s", w.name, base)
		}
		sql := q.SQL
		shift := rng.Intn(28)
		if start, ok := dateWindow[base]; ok {
			from := start
			if b, ok := baseLiteral[base]; ok {
				from = b
			}
			day, err := time.Parse("2006-01-02", start)
			if err != nil {
				return nil, err
			}
			if year != "" {
				y, err := strconv.Atoi(year)
				if err != nil {
					return nil, err
				}
				day = day.AddDate(y-day.Year(), 0, 0)
			}
			to := day.AddDate(0, 0, shift).Format("2006-01-02")
			if sql, err = replaceLiteral(sql, "DATE '"+from+"'", "DATE '"+to+"'"); err != nil {
				return nil, fmt.Errorf("%s: %w", qn, err)
			}
		}
		var err error
		switch base {
		case "Q1": // TPC-H DELTA domain is 60–120 days
			sql, err = replaceLiteral(sql, "INTERVAL '90' DAY", fmt.Sprintf("INTERVAL '%d' DAY", 76+shift))
		case "Q18":
			sql, err = replaceLiteral(sql, "> 212", fmt.Sprintf("> %d", 210+shift%5))
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", qn, err)
		}
		out = append(out, statement{name: qn, sql: sql, lineitem: true})
	}
	return out, nil
}

// replaceLiteral substitutes every occurrence of a literal and fails when
// the query text no longer carries it, so a change to the repository's
// TPC-H text cannot silently freeze the seed out of a statement.
func replaceLiteral(sql, from, to string) (string, error) {
	if !strings.Contains(sql, from) {
		return "", fmt.Errorf("literal %q not found in query text", from)
	}
	return strings.ReplaceAll(sql, from, to), nil
}
