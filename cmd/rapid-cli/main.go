// rapid-cli is an interactive SQL shell over the RAPID engine, preloaded
// with the TPC-H-style workload.
//
// Usage:
//
//	rapid-cli [-sf 0.005] [-engine auto|host|dpu|x86] [-metrics addr]
//	          [-trace out.json]
//
// Shell commands: \q quit, \tables, \engine <mode>, \explain <sql>,
// \queries (list TPC-H queries), \run <name> (run one by name),
// \ps (active queries), \kill <id> (cancel by QueryID), \journal [n]
// (recent query-journal records), \cache (query-cache counters),
// \nocache <sql> (run one statement bypassing the cache).
// Prefix any query with EXPLAIN ANALYZE to get the per-operator profile
// (cycles, DMS bytes, energy, rows/tiles) of the RAPID execution.
// -metrics serves the observability endpoint on addr while the shell runs
// (Prometheus on /metrics, live queries on /debug/queries; -pprof adds
// /debug/pprof/*); -trace accumulates every profiled query into a Chrome
// trace-event JSON (load in chrome://tracing or ui.perfetto.dev) written
// on exit.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"rapid/internal/hostdb"
	"rapid/internal/obs"
	"rapid/internal/qcache"
	"rapid/internal/qef"
	"rapid/internal/tpch"
)

func main() {
	sf := flag.Float64("sf", 0.005, "TPC-H scale factor to preload")
	engine := flag.String("engine", "auto", "execution engine: auto|host|dpu|x86")
	metricsAddr := flag.String("metrics", "", "serve Prometheus metrics on this address (e.g. 127.0.0.1:9090)")
	pprof := flag.Bool("pprof", false, "expose Go runtime profiles on /debug/pprof/* of the -metrics endpoint")
	tracePath := flag.String("trace", "", "write profiled queries as Chrome trace-event JSON to this file on exit")
	cacheOn := flag.Bool("cache", true, "enable the query result cache (\\cache shows stats; \\nocache <sql> bypasses)")
	flag.Parse()

	fmt.Printf("loading TPC-H at SF %.3f...\n", *sf)
	db := hostdb.New()
	if err := tpch.PopulateHostDB(db, tpch.Config{ScaleFactor: *sf, Seed: 2018}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var cache *qcache.Cache
	if *cacheOn {
		cache = db.EnableQueryCache(qcache.Config{})
	}
	if *metricsAddr != "" {
		srv, err := db.ServeTelemetryWith(*metricsAddr, *pprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("telemetry: %s\n", srv.URL())
	}
	if *tracePath != "" {
		trace = obs.NewTraceBuilder()
		defer func() {
			if trace.Empty() {
				return
			}
			data, err := trace.JSON()
			if err == nil {
				err = os.WriteFile(*tracePath, data, 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "trace:", err)
				return
			}
			fmt.Printf("trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", *tracePath)
		}()
	}
	fmt.Println("ready. tables:", strings.Join(tpch.TableNames(), ", "))
	fmt.Println(`enter SQL terminated by ';', or \q to quit, \queries for samples`)
	fmt.Println(`prefix a query with EXPLAIN ANALYZE for a per-operator profile`)

	opts := optsFor(*engine)
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() { fmt.Print("rapid> ") }
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			switch {
			case trimmed == `\q`:
				return
			case trimmed == `\tables`:
				for _, n := range tpch.TableNames() {
					t, _ := db.Table(n)
					fmt.Printf("  %-10s %8d rows\n", n, t.Rows())
				}
			case trimmed == `\queries`:
				for _, q := range tpch.Queries() {
					fmt.Println("  " + q.Name)
				}
			case strings.HasPrefix(trimmed, `\engine `):
				opts = optsFor(strings.TrimPrefix(trimmed, `\engine `))
				fmt.Println("engine set")
			case strings.HasPrefix(trimmed, `\run `):
				name := strings.TrimSpace(strings.TrimPrefix(trimmed, `\run `))
				if q, ok := tpch.QueryByName(name); ok {
					exec(db, q.SQL, opts, false)
				} else {
					fmt.Println("unknown query; try \\queries")
				}
			case strings.HasPrefix(trimmed, `\explain `):
				exec(db, strings.TrimPrefix(trimmed, `\explain `), opts, true)
			case trimmed == `\cache`:
				printCache(cache)
			case strings.HasPrefix(trimmed, `\nocache `):
				o := opts
				o.NoCache = true
				exec(db, strings.TrimPrefix(trimmed, `\nocache `), o, false)
			case trimmed == `\ps`:
				printActive(db)
			case strings.HasPrefix(trimmed, `\kill `):
				killQuery(db, strings.TrimSpace(strings.TrimPrefix(trimmed, `\kill `)))
			case trimmed == `\journal` || strings.HasPrefix(trimmed, `\journal `):
				n := 10
				if rest := strings.TrimSpace(strings.TrimPrefix(trimmed, `\journal`)); rest != "" {
					if v, err := strconv.Atoi(rest); err == nil && v > 0 {
						n = v
					}
				}
				printJournal(db, n)
			default:
				fmt.Println(`unknown command; \q \tables \queries \engine \run \explain \ps \kill \journal \cache \nocache`)
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.Contains(line, ";") {
			exec(db, buf.String(), opts, false)
			buf.Reset()
			prompt()
		}
	}
}

// trace, when non-nil, accumulates every profiled query for -trace.
var trace *obs.TraceBuilder
var traceSeq int

// oneLine collapses SQL to a single truncated line for table output.
func oneLine(sql string, max int) string {
	s := strings.Join(strings.Fields(sql), " ")
	if len(s) > max {
		s = s[:max] + "..."
	}
	return s
}

// printActive renders the \ps table: the live query set, sorted by ID.
func printActive(db *hostdb.Database) {
	qs := db.ActiveQueries()
	if len(qs) == 0 {
		fmt.Println("no active queries")
		return
	}
	fmt.Printf("  %-6s %-6s %-10s %-5s %-10s %s\n", "id", "mode", "phase", "nodes", "elapsed", "sql")
	for _, q := range qs {
		fmt.Printf("  %-6d %-6s %-10s %-5d %-10s %s\n",
			q.ID, q.Mode, q.Phase, q.Nodes, q.Elapsed.Round(time.Millisecond), oneLine(q.SQL, 48))
	}
}

// killQuery cancels an active query by its \ps / journal ID.
func killQuery(db *hostdb.Database, arg string) {
	id, err := strconv.ParseUint(arg, 10, 64)
	if err != nil {
		fmt.Println("usage: \\kill <id>")
		return
	}
	if db.CancelQuery(id) {
		fmt.Printf("query %d canceled\n", id)
	} else {
		fmt.Printf("no active query with id %d\n", id)
	}
}

// printCache renders the \cache table: the shared query-cache counters.
func printCache(cache *qcache.Cache) {
	if cache == nil {
		fmt.Println("query cache disabled (-cache=false)")
		return
	}
	st := cache.Stats()
	fmt.Printf("  result: hits=%d misses=%d stale=%d shared=%d bypasses=%d rejects=%d\n",
		st.Hits, st.Misses, st.Stale, st.Shared, st.Bypasses, st.Rejects)
	fmt.Printf("  space:  %d entries, %d bytes resident (evictions=%d)\n",
		st.ResidentEntries, st.ResidentBytes, st.Evictions)
}

// printJournal renders the newest n query-journal records, oldest first.
func printJournal(db *hostdb.Database, n int) {
	j := db.QueryJournal()
	recs := j.Tail(n)
	if len(recs) == 0 {
		fmt.Println("journal empty")
		return
	}
	fmt.Printf("  %-6s %-8s %-6s %-5s %8s %10s %s\n", "id", "outcome", "mode", "nodes", "rows", "wall", "sql")
	for _, r := range recs {
		fmt.Printf("  %-6d %-8s %-6s %-5d %8d %10s %s\n",
			r.ID, r.Outcome, r.Mode, r.Nodes, r.Rows,
			time.Duration(r.WallNs).Round(time.Microsecond), oneLine(r.SQL, 40))
	}
	fmt.Printf("  total=%d ok=%d shed=%d canceled=%d error=%d\n",
		j.Total(), j.OutcomeCount(obs.OutcomeOK), j.OutcomeCount(obs.OutcomeShed),
		j.OutcomeCount(obs.OutcomeCanceled), j.OutcomeCount(obs.OutcomeError))
}

func optsFor(engine string) hostdb.QueryOptions {
	switch engine {
	case "host":
		return hostdb.QueryOptions{Mode: hostdb.ForceHost}
	case "dpu":
		return hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeDPU}
	case "x86":
		return hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeX86}
	default:
		return hostdb.QueryOptions{Mode: hostdb.CostBased, RapidMode: qef.ModeX86}
	}
}

func exec(db *hostdb.Database, sql string, opts hostdb.QueryOptions, explainOnly bool) {
	start := time.Now()
	res, err := db.Query(sql, opts)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if explainOnly {
		fmt.Print(res.Explain)
		return
	}
	rel := res.Rel
	const maxRows = 40
	n := rel.Rows()
	show := n
	if show > maxRows {
		show = maxRows
	}
	for c := range rel.Cols {
		if c > 0 {
			fmt.Print(" | ")
		}
		fmt.Print(rel.Cols[c].Name)
	}
	fmt.Println()
	for i := 0; i < show; i++ {
		for c := range rel.Cols {
			if c > 0 {
				fmt.Print(" | ")
			}
			fmt.Print(rel.Render(i, c))
		}
		fmt.Println()
	}
	if show < n {
		fmt.Printf("... (%d more rows)\n", n-show)
	}
	where := "host engine"
	if res.Offloaded {
		where = "RAPID"
		if res.FellBack {
			where = "host (fell back)"
		}
	} else if res.FellBack {
		where = "host (fell back)"
	}
	if res.Cache == "hit" {
		where += " result cache"
	}
	fmt.Printf("%d rows in %.1f ms via %s", n, float64(time.Since(start))/1e6, where)
	if res.Cache != "" && res.Cache != "hit" {
		fmt.Printf(" [cache %s]", res.Cache)
	}
	if res.SimSeconds > 0 {
		fmt.Printf(" (simulated DPU time: %.3f ms)", res.SimSeconds*1e3)
	}
	fmt.Println()
	if res.Profile != nil {
		fmt.Println()
		fmt.Print(res.Profile.Format())
		if trace != nil {
			traceSeq++
			name := strings.Join(strings.Fields(sql), " ")
			if len(name) > 60 {
				name = name[:60] + "..."
			}
			trace.AddQuery(fmt.Sprintf("q%d: %s", traceSeq, name), res.Profile)
		}
	} else if res.ProfileNote != "" {
		fmt.Println(res.ProfileNote)
	}
}
