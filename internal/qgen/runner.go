package qgen

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"rapid/internal/cluster"
	"rapid/internal/hostdb"
	"rapid/internal/obs"
	"rapid/internal/ops"
	"rapid/internal/power"
	"rapid/internal/qef"
	"rapid/internal/sched"
	"rapid/internal/storage"
)

// engineSpec is one execution lane of the differential check.
type engineSpec struct {
	name string
	alt  bool // run against the alternate-layout database
	opts hostdb.QueryOptions
}

// engines: the hostdb row interpreter is the oracle; both RAPID modes run on
// the primary layout, and ModeX86 additionally runs on a database loaded
// with a different storage layout (tiny chunks, RLE) so physical-plan
// equivalence is checked on every query.
// Every RAPID lane runs with profiling on, so the soak also checks the
// per-operator accounting invariants (cycle, DMS-byte and row conservation)
// on each generated query.
var engines = []engineSpec{
	{name: "host", opts: hostdb.QueryOptions{Mode: hostdb.ForceHost}},
	{name: "x86", opts: hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeX86, FailOnInadmissible: true, Profile: true}},
	{name: "dpu", opts: hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeDPU, FailOnInadmissible: true, Profile: true}},
	{name: "x86/alt-layout", alt: true, opts: hostdb.QueryOptions{Mode: hostdb.ForceOffload, RapidMode: qef.ModeX86, FailOnInadmissible: true, Profile: true}},
}

// profErr folds a profile-invariant violation into an engine error. The
// energy decomposition is checked alongside the accounting invariants, so
// every soak query also proves span joules sum to whole-query joules and
// stay inside the provisioned-power envelope.
func profErr(p *obs.Profile) error {
	if err := p.CheckInvariants(); err != nil {
		return fmt.Errorf("profile invariants: %w", err)
	}
	if err := p.CheckEnergyInvariants(power.DefaultEnergyModel()); err != nil {
		return fmt.Errorf("energy invariants: %w", err)
	}
	return nil
}

// trayLane is one distributed execution lane: a tray of n nodes over the
// primary database, with every scenario table hash-sharded.
type trayLane struct {
	nodes int
	tray  *cluster.Tray
}

// Runner owns the two databases loaded from a scenario and executes checks.
type Runner struct {
	Sc      *Scenario
	primary *hostdb.Database
	alt     *hostdb.Database
	trays   []trayLane

	// Executed counts engine executions; Rejected counts queries that every
	// engine consistently refused (parse/bind errors), which is fine — the
	// generator probes error paths too.
	Executed int
	Rejected int
}

// altLoad is the alternate layout: small chunks and RLE enabled. The primary
// loads with the defaults. A scan order that differs from the host's row
// order is the distributed lanes' part: they hash-shard every table.
var altLoad = hostdb.LoadOptions{ChunkRows: 7, TryRLE: true}

// loadOpts returns the layout db's tables are loaded (and reloaded) with.
func (r *Runner) loadOpts(db *hostdb.Database) hostdb.LoadOptions {
	if db == r.alt {
		return altLoad
	}
	return hostdb.LoadOptions{}
}

// NewRunner builds both databases and loads every table, each with its own
// layout.
func NewRunner(sc *Scenario) (*Runner, error) {
	r := &Runner{Sc: sc, primary: hostdb.New(), alt: hostdb.New()}
	for _, db := range []*hostdb.Database{r.primary, r.alt} {
		for _, t := range sc.Tables {
			schema := make([]storage.ColumnDef, len(t.Cols))
			for i, c := range t.Cols {
				schema[i] = storage.ColumnDef{Name: c.Name, Type: c.Type}
			}
			if _, err := db.CreateTable(t.Name, storage.MustSchema(schema...)); err != nil {
				return nil, err
			}
			if len(t.Rows) > 0 {
				if _, err := db.Insert(t.Name, t.Rows); err != nil {
					return nil, err
				}
			}
			if _, err := db.Load(t.Name, r.loadOpts(db)); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// EnableTrays adds a distributed differential lane per node count: each is a
// tray of n SoC nodes over the primary database with every scenario table
// hash-sharded (ReplicateMaxRows < 0), so exchange operators, repartitioning
// joins and empty shards are exercised on every generated query.
func (r *Runner) EnableTrays(nodeCounts []int) error {
	for _, n := range nodeCounts {
		tray, err := cluster.New(r.primary, cluster.Config{Nodes: n, ReplicateMaxRows: -1})
		if err != nil {
			return err
		}
		for _, t := range r.Sc.Tables {
			if err := tray.Load(t.Name, nil); err != nil {
				tray.Close()
				return fmt.Errorf("tray(%d): load %s: %w", n, t.Name, err)
			}
		}
		r.trays = append(r.trays, trayLane{nodes: n, tray: tray})
	}
	return nil
}

// Close stops the scheduler worker pools and background machinery of both
// databases. The Runner is unusable afterwards.
func (r *Runner) Close() {
	for _, tl := range r.trays {
		tl.tray.Close()
	}
	r.primary.Close()
	r.alt.Close()
}

// CheckJournal verifies the query-journal bookkeeping after a soak: every
// engine execution the runner issued appears in exactly one journal with a
// terminal outcome (tray-lane queries journal into the primary database's
// journal), the cumulative outcome counters account for every record, and
// no query is stuck in the active table. Call it once at the end of a run —
// it compares totals, so partial checks mid-soak would race in-flight
// queries.
func (r *Runner) CheckJournal() *Mismatch {
	var total int64
	for _, db := range []*hostdb.Database{r.primary, r.alt} {
		j := db.QueryJournal()
		var sum int64
		for _, o := range []obs.QueryOutcome{obs.OutcomeOK, obs.OutcomeShed, obs.OutcomeCanceled, obs.OutcomeError} {
			sum += j.OutcomeCount(o)
		}
		if sum != j.Total() {
			return r.mismatch("journal", "", fmt.Sprintf(
				"outcome counters sum to %d but the journal total is %d", sum, j.Total()))
		}
		total += j.Total()
	}
	if total != int64(r.Executed) {
		return r.mismatch("journal", "", fmt.Sprintf(
			"journals hold %d records but the runner issued %d engine executions", total, r.Executed))
	}
	for _, db := range []*hostdb.Database{r.primary, r.alt} {
		if act := db.ActiveQueries(); len(act) != 0 {
			return r.mismatch("journal", "", fmt.Sprintf(
				"%d queries still in the active table after the soak", len(act)))
		}
	}
	return nil
}

// engineRun is one engine's outcome for a query.
type engineRun struct {
	name string
	rel  *ops.Relation
	err  error
}

func (r *Runner) runAll(sql string) []engineRun {
	out := make([]engineRun, len(engines), len(engines)+len(r.trays))
	for i, e := range engines {
		db := r.primary
		if e.alt {
			db = r.alt
		}
		res, err := db.Query(sql, e.opts)
		r.Executed++
		switch {
		case err != nil:
			out[i] = engineRun{name: e.name, err: err}
		case res.FellBack:
			// ForceOffload fell back: RAPID execution itself failed while
			// the host could run the plan — that is a real engine bug.
			out[i] = engineRun{name: e.name, err: fmt.Errorf("RAPID execution fell back to host")}
		default:
			if perr := profErr(res.Profile); perr != nil {
				out[i] = engineRun{name: e.name, err: perr}
			} else {
				out[i] = engineRun{name: e.name, rel: res.Rel}
			}
		}
	}
	for _, tl := range r.trays {
		name := fmt.Sprintf("tray%d", tl.nodes)
		res, err := tl.tray.Query(sql, cluster.QueryOptions{Mode: qef.ModeX86})
		r.Executed++
		if err != nil {
			out = append(out, engineRun{name: name, err: err})
		} else {
			out = append(out, engineRun{name: name, rel: res.Rel})
		}
	}
	return out
}

// CheckTrayFragments runs sql once more on tray lane `lane` (modulo the lane
// count, so callers can pass a running counter) in ModeDPU with
// trace recording on and checks the accounting and energy invariants of every
// node and coordinator fragment profile. Call it after Check has passed: an
// error here is tolerated only if the host rejects the query too.
func (r *Runner) CheckTrayFragments(sql string, lane int) *Mismatch {
	tl := r.trays[lane%len(r.trays)]
	res, err := tl.tray.Query(sql, cluster.QueryOptions{Mode: qef.ModeDPU, Trace: true})
	r.Executed++
	if err != nil {
		_, herr := r.primary.Query(sql, engines[0].opts)
		r.Executed++
		if herr != nil {
			return nil
		}
		return r.mismatch("tray-fragments", sql, fmt.Sprintf("host executed the query but tray%d/dpu failed: %v", tl.nodes, err))
	}
	for _, st := range res.Trace {
		if err := profErr(st.Coord); err != nil {
			return r.mismatch("tray-fragments", sql, fmt.Sprintf("tray%d coordinator fragment %q: %v", tl.nodes, st.Label, err))
		}
		for i, p := range st.NodeProfiles {
			if err := profErr(p); err != nil {
				return r.mismatch("tray-fragments", sql, fmt.Sprintf("tray%d node %d fragment %q: %v", tl.nodes, i, st.Label, err))
			}
		}
	}
	return nil
}

// bag renders every row of a relation and returns the sorted multiset.
func bag(rel *ops.Relation) []string {
	n := rel.Rows()
	rows := make([]string, n)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.Reset()
		for c := 0; c < rel.NumCols(); c++ {
			sb.WriteString(rel.Render(i, c))
			sb.WriteByte(0)
		}
		rows[i] = sb.String()
	}
	sort.Strings(rows)
	return rows
}

func diffBags(a, b []string) string {
	if len(a) != len(b) {
		return fmt.Sprintf("row count %d vs %d", len(a), len(b))
	}
	shown := 0
	var sb strings.Builder
	for i := range a {
		if a[i] != b[i] {
			fmt.Fprintf(&sb, "row %d: %q vs %q; ", i,
				strings.ReplaceAll(a[i], "\x00", "|"), strings.ReplaceAll(b[i], "\x00", "|"))
			if shown++; shown >= 5 {
				sb.WriteString("...")
				break
			}
		}
	}
	return sb.String()
}

func (r *Runner) mismatch(check, sql, detail string) *Mismatch {
	return &Mismatch{Seed: r.Sc.Seed, SQL: sql, Check: check, Detail: detail, Scenario: r.Sc}
}

// CheckSQL runs the bare differential check on a SQL string: every engine
// must agree with the host on the rendered result bag, or every engine must
// reject the query. Returns nil when consistent.
func (r *Runner) CheckSQL(sql string) *Mismatch {
	runs := r.runAll(sql)
	host := runs[0]
	if host.err != nil {
		var okEngines []string
		for _, e := range runs[1:] {
			if e.err == nil {
				okEngines = append(okEngines, e.name)
			}
		}
		if len(okEngines) > 0 {
			return r.mismatch("differential", sql, fmt.Sprintf(
				"host rejected the query (%v) but %v executed it", host.err, okEngines))
		}
		r.Rejected++
		return nil
	}
	hostBag := bag(host.rel)
	for _, e := range runs[1:] {
		if e.err != nil {
			return r.mismatch("differential", sql, fmt.Sprintf(
				"host executed the query but %s failed: %v", e.name, e.err))
		}
		if e.rel.NumCols() != host.rel.NumCols() {
			return r.mismatch("differential", sql, fmt.Sprintf(
				"column count host=%d %s=%d", host.rel.NumCols(), e.name, e.rel.NumCols()))
		}
		if d := diffBags(hostBag, bag(e.rel)); d != "" {
			return r.mismatch("differential", sql, fmt.Sprintf("host vs %s: %s", e.name, d))
		}
	}
	return nil
}

// CheckConcurrent executes the same SQL on `parallel` sessions at once —
// cycling through the RAPID lanes, shared databases and all — and
// differentially compares every concurrent result against a serial host
// oracle run. Scheduler bugs (cross-query state leaks, tile-pool corruption,
// accounting races under the shared SoC) surface as ordinary replayable
// mismatches. A lane shed by admission control (ErrOverloaded) is tolerated:
// load shedding is correct behavior, not a wrong answer.
func (r *Runner) CheckConcurrent(sql string, parallel int) *Mismatch {
	if parallel < 2 {
		return nil
	}
	hres, herr := r.primary.Query(sql, engines[0].opts)
	r.Executed++
	if herr != nil {
		// Rejection consistency across engines is already covered by the
		// serial differential check; nothing to race here.
		return nil
	}
	hostBag := bag(hres.Rel)

	specs := engines[1:]
	results := make([]engineRun, parallel)
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		e := specs[i%len(specs)]
		db := r.primary
		if e.alt {
			db = r.alt
		}
		wg.Add(1)
		go func(slot int, name string, db *hostdb.Database, opts hostdb.QueryOptions) {
			defer wg.Done()
			res, err := db.Query(sql, opts)
			switch {
			case err != nil:
				results[slot] = engineRun{name: name, err: err}
			case res.FellBack:
				results[slot] = engineRun{name: name, err: fmt.Errorf("RAPID execution fell back to host")}
			default:
				if perr := profErr(res.Profile); perr != nil {
					results[slot] = engineRun{name: name, err: perr}
				} else {
					results[slot] = engineRun{name: name, rel: res.Rel}
				}
			}
		}(i, e.name, db, e.opts)
	}
	wg.Wait()
	r.Executed += parallel

	for i, lane := range results {
		if lane.err != nil {
			if errors.Is(lane.err, sched.ErrOverloaded) {
				continue
			}
			return r.mismatch("concurrent", sql, fmt.Sprintf(
				"serial host executed but concurrent session %d (%s) failed: %v", i, lane.name, lane.err))
		}
		if lane.rel.NumCols() != hres.Rel.NumCols() {
			return r.mismatch("concurrent", sql, fmt.Sprintf(
				"column count host=%d session %d (%s)=%d", hres.Rel.NumCols(), i, lane.name, lane.rel.NumCols()))
		}
		if d := diffBags(hostBag, bag(lane.rel)); d != "" {
			return r.mismatch("concurrent", sql, fmt.Sprintf(
				"serial host vs concurrent session %d (%s): %s", i, lane.name, d))
		}
	}
	return nil
}

// Check runs the full per-query validation: the differential check plus
// ordering and limit verification when the query declares them.
func (r *Runner) Check(q *Query) *Mismatch {
	sql := q.SQL()
	if m := r.CheckSQL(sql); m != nil {
		return m
	}
	if len(q.SortKeys) == 0 && q.limit < 0 {
		return nil
	}
	runs := r.runAll(sql)
	for _, e := range runs {
		if e.err != nil {
			return nil // consistently rejected; already accounted above
		}
		if q.limit >= 0 && e.rel.Rows() > q.limit {
			return r.mismatch("limit", sql, fmt.Sprintf(
				"%s returned %d rows with LIMIT %d", e.name, e.rel.Rows(), q.limit))
		}
		if err := checkSorted(e.rel, q.SortKeys); err != nil {
			return r.mismatch("order", sql, fmt.Sprintf("%s: %v", e.name, err))
		}
	}
	return nil
}

// checkSorted verifies the relation is ordered on the given output
// positions. Keys are guaranteed non-string by the generator, so the raw
// int64 encodings (ints, day numbers, unscaled decimals, bools) order
// correctly.
func checkSorted(rel *ops.Relation, keys []SortChk) error {
	for row := 1; row < rel.Rows(); row++ {
		for _, k := range keys {
			a := rel.Get(row-1, k.Pos)
			b := rel.Get(row, k.Pos)
			if k.Desc {
				a, b = b, a
			}
			if a < b {
				break
			}
			if a > b {
				return fmt.Errorf("rows %d,%d violate ORDER BY position %d", row-1, row, k.Pos+1)
			}
		}
	}
	return nil
}

// CheckTLP verifies ternary-logic partitioning on every engine: for a
// predicate p := e > c, the base query's bag must equal the union of the
// bags of Q WHERE p, Q WHERE NOT p and Q WHERE e IS NULL. In this NULL-free
// engine the third branch is constant-empty but still exercises the
// parse/bind/fold path.
func (r *Runner) CheckTLP(q *Query) *Mismatch {
	if !q.TLPable() {
		return nil
	}
	ints := intCols(q.scope)
	if len(ints) == 0 {
		return nil
	}
	c := ints[g0(r.Sc.Seed, len(ints))]
	cutoff := c.Hi / 2
	branches := []string{
		fmt.Sprintf("((%s) > (%d))", c.Name, cutoff),
		fmt.Sprintf("(NOT ((%s) > (%d)))", c.Name, cutoff),
		fmt.Sprintf("((%s) IS NULL)", c.Name),
	}
	base := q.SQL()
	for _, e := range engines {
		if e.alt {
			continue
		}
		bres, err := r.primary.Query(base, e.opts)
		r.Executed++
		if err != nil || bres.FellBack {
			return nil // base inconsistencies are caught by Check
		}
		baseBag := bag(bres.Rel)
		var parts []string
		for _, br := range branches {
			pres, perr := r.primary.Query(q.WithConjunct(br), e.opts)
			r.Executed++
			if perr == nil && pres.FellBack {
				perr = fmt.Errorf("RAPID execution fell back to host")
			}
			if perr == nil {
				perr = profErr(pres.Profile)
			}
			if perr != nil {
				return r.mismatch("tlp", base, fmt.Sprintf(
					"%s: base executed but branch %q failed: %v", e.name, br, perr))
			}
			parts = append(parts, bag(pres.Rel)...)
		}
		sort.Strings(parts)
		if d := diffBags(baseBag, parts); d != "" {
			return r.mismatch("tlp", base, fmt.Sprintf(
				"%s: Q vs (Q WHERE p ⊎ Q WHERE NOT p ⊎ Q WHERE p IS NULL): %s", e.name, d))
		}
	}
	return nil
}

// CheckPruningMetamorphic verifies zone-map pruning is result-invariant:
// every RAPID lane — and every enabled tray lane — must return the identical
// result bag with pruning force-disabled and enabled. A divergence means a
// zone map rejected a tile (or a shard summary rejected a node fragment)
// that still held qualifying rows. The pruned run keeps profiling on, so the
// pruned+scanned == total-tiles accounting invariant is checked on every
// generated query too (via profErr).
func (r *Runner) CheckPruningMetamorphic(sql string) *Mismatch {
	for _, e := range engines[1:] {
		db := r.primary
		if e.alt {
			db = r.alt
		}
		offOpts := e.opts
		offOpts.DisablePruning = true
		off, offErr := db.Query(sql, offOpts)
		on, onErr := db.Query(sql, e.opts)
		r.Executed += 2
		if offErr != nil || onErr != nil {
			if (offErr == nil) != (onErr == nil) {
				return r.mismatch("pruning", sql, fmt.Sprintf(
					"%s: unpruned err=%v, pruned err=%v", e.name, offErr, onErr))
			}
			continue // consistently rejected
		}
		if perr := profErr(on.Profile); perr != nil {
			return r.mismatch("pruning", sql, fmt.Sprintf("%s (pruned): %v", e.name, perr))
		}
		if d := diffBags(bag(off.Rel), bag(on.Rel)); d != "" {
			return r.mismatch("pruning", sql, fmt.Sprintf(
				"%s: unpruned vs pruned: %s", e.name, d))
		}
	}
	for _, tl := range r.trays {
		name := fmt.Sprintf("tray%d", tl.nodes)
		off, offErr := tl.tray.Query(sql, cluster.QueryOptions{Mode: qef.ModeX86, DisablePruning: true})
		on, onErr := tl.tray.Query(sql, cluster.QueryOptions{Mode: qef.ModeX86})
		r.Executed += 2
		if offErr != nil || onErr != nil {
			if (offErr == nil) != (onErr == nil) {
				return r.mismatch("pruning", sql, fmt.Sprintf(
					"%s: unpruned err=%v, pruned err=%v", name, offErr, onErr))
			}
			continue
		}
		if d := diffBags(bag(off.Rel), bag(on.Rel)); d != "" {
			return r.mismatch("pruning", sql, fmt.Sprintf(
				"%s: unpruned vs pruned: %s", name, d))
		}
	}
	return nil
}

// sameRelation compares two relations value by value, row order included.
func sameRelation(a, b *ops.Relation) string {
	if a.NumCols() != b.NumCols() || a.Rows() != b.Rows() {
		return fmt.Sprintf("shape %dx%d vs %dx%d", a.Rows(), a.NumCols(), b.Rows(), b.NumCols())
	}
	for c := range a.Cols {
		for i := 0; i < a.Rows(); i++ {
			if x, y := a.Get(i, c), b.Get(i, c); x != y {
				return fmt.Sprintf("row %d column %d: %d vs %d", i, c, x, y)
			}
		}
	}
	return ""
}

// CheckWorkerInvariance verifies that results do not depend on goroutine
// timing or on how many workers shared the work: the host X86 lanes (default
// and alternate layout) must return the same relation — row order included —
// at 1, 2 and 8 workers, and twice in a row at 8. A ModeX86 context sizes
// itself from GOMAXPROCS, so the check sets it around each run; callers must
// not run it beside other tests' queries.
func (r *Runner) CheckWorkerInvariance(sql string) *Mismatch {
	for _, e := range []engineSpec{engines[1], engines[3]} {
		db := r.primary
		if e.alt {
			db = r.alt
		}
		var first *hostdb.QueryResult
		var firstErr error
		for i, procs := range []int{1, 2, 8, 8} {
			prev := runtime.GOMAXPROCS(procs)
			res, err := db.Query(sql, e.opts)
			runtime.GOMAXPROCS(prev)
			r.Executed++
			if i == 0 {
				first, firstErr = res, err
				continue
			}
			if (err == nil) != (firstErr == nil) {
				return r.mismatch("workers", sql, fmt.Sprintf(
					"%s: 1 worker err=%v, %d workers err=%v", e.name, firstErr, procs, err))
			}
			if err != nil {
				continue // consistently rejected
			}
			if d := sameRelation(first.Rel, res.Rel); d != "" {
				return r.mismatch("workers", sql, fmt.Sprintf(
					"%s: 1 worker vs %d workers: %s", e.name, procs, d))
			}
		}
	}
	return nil
}

// g0 derives a deterministic small index from the scenario seed.
func g0(seed int64, n int) int {
	if seed < 0 {
		seed = -seed
	}
	return int(seed % int64(n))
}

// tautologies over an int column c: each must preserve any query's bag.
func tautologies(c *Column) []string {
	return []string{
		"(1 = 1)",
		fmt.Sprintf("(%s = %s)", c.Name, c.Name),
		fmt.Sprintf("((%s) IS NOT NULL)", c.Name),
		fmt.Sprintf("(%s BETWEEN %s AND %s)", c.Name, c.Name, c.Name),
	}
}

// CheckTautology verifies that ANDing a tautological conjunct preserves the
// result bag on host and ModeX86, and that a contradictory conjunct yields
// engine-consistent results.
func (r *Runner) CheckTautology(q *Query) *Mismatch {
	if !q.TautologyOK() {
		return nil
	}
	ints := intCols(q.scope)
	if len(ints) == 0 {
		return nil
	}
	c := ints[g0(r.Sc.Seed+1, len(ints))]
	taut := tautologies(c)[g0(r.Sc.Seed, 4)]
	base := q.SQL()
	for _, e := range engines[:2] { // host + x86
		bres, err := r.primary.Query(base, e.opts)
		r.Executed++
		if err != nil || bres.FellBack {
			return nil
		}
		tres, terr := r.primary.Query(q.WithConjunct(taut), e.opts)
		r.Executed++
		if terr == nil && tres.FellBack {
			terr = fmt.Errorf("RAPID execution fell back to host")
		}
		if terr == nil {
			terr = profErr(tres.Profile)
		}
		if terr != nil {
			return r.mismatch("tautology", base, fmt.Sprintf(
				"%s: base executed but tautology-extended %q failed: %v", e.name, taut, terr))
		}
		if d := diffBags(bag(bres.Rel), bag(tres.Rel)); d != "" {
			return r.mismatch("tautology", base, fmt.Sprintf(
				"%s: AND %s changed the result: %s", e.name, taut, d))
		}
	}
	// Contradiction: run the full differential check on the contradictory
	// query (aggregates over the emptied input still produce a row; the
	// engines must agree on it).
	contra := []string{"(1 = 0)", fmt.Sprintf("((%s) IS NULL)", c.Name)}[g0(r.Sc.Seed, 2)]
	if m := r.CheckSQL(q.WithConjunct(contra)); m != nil {
		m.Check = "contradiction"
		return m
	}
	return nil
}
