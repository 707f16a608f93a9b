package qgen

import (
	"fmt"
	"strings"
	"testing"

	"rapid/internal/hostdb"
	"rapid/internal/ops"
	"rapid/internal/qcomp"
	"rapid/internal/qef"
	"rapid/internal/sqlparse"
	"rapid/internal/storage"
)

// DML differential lane: a generated sequence of Insert / Update / Delete /
// Checkpoint / Load is applied identically to the primary and the
// alternate-layout database, then generated queries must agree across the
// host row engine (which never reads the replica) and every RAPID lane.
// Replica row addressing — base rows in every layout, rows inserted since the
// last Load, tombstones a reload skipped — has no other differential cover.

// dmlDriver generates and applies the DML of one scenario. It mirrors the
// host row stores' shape (both databases see the same sequence, so one mirror
// serves both): which host rows are live, and how many existed at the last
// Load — rows past that mark are the replica's inserted rows.
type dmlDriver struct {
	g      *Generator
	r      *Runner
	live   [][]bool // [table][host row]
	loaded []int    // [table] host rows at the last Load
	log    []string // every operation applied, for reproducers
}

func newDMLDriver(g *Generator, r *Runner) *dmlDriver {
	d := &dmlDriver{g: g, r: r}
	for _, t := range r.Sc.Tables {
		live := make([]bool, len(t.Rows))
		for i := range live {
			live[i] = true
		}
		d.live = append(d.live, live)
		d.loaded = append(d.loaded, len(t.Rows))
	}
	return d
}

// both applies op to the primary and the alternate database.
func (d *dmlDriver) both(what string, op func(db *hostdb.Database) error) error {
	d.log = append(d.log, what)
	for _, db := range []*hostdb.Database{d.r.primary, d.r.alt} {
		if err := op(db); err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
	}
	return nil
}

// pickRow returns a live host row of table ti: one inserted since the last
// Load when inserted is set, one the replica loaded otherwise — or any live
// row when there is none of the wanted kind.
func (d *dmlDriver) pickRow(ti int, inserted bool) (int, bool) {
	var wanted, any []int
	for h, ok := range d.live[ti] {
		if !ok {
			continue
		}
		any = append(any, h)
		if (h >= d.loaded[ti]) == inserted {
			wanted = append(wanted, h)
		}
	}
	if len(wanted) == 0 {
		wanted = any
	}
	if len(wanted) == 0 {
		return 0, false
	}
	return wanted[d.g.intn(len(wanted))], true
}

// insert appends n generated rows to table ti.
func (d *dmlDriver) insert(ti, n int) error {
	tb := d.r.Sc.Tables[ti]
	rows := make([][]storage.Value, n)
	var txt []string
	for i := range rows {
		rows[i] = make([]storage.Value, len(tb.Cols))
		for c := range tb.Cols {
			rows[i][c] = d.g.genValue(&tb.Cols[c])
			txt = append(txt, renderValue(tb.Cols[c], rows[i][c]))
		}
		d.live[ti] = append(d.live[ti], true)
	}
	return d.both(fmt.Sprintf("Insert(%s, %d rows: %s)", tb.Name, len(rows), strings.Join(txt, ", ")),
		func(db *hostdb.Database) error { _, err := db.Insert(tb.Name, rows); return err })
}

// update writes a generated value into a generated column of host row h.
func (d *dmlDriver) update(ti, h int) error {
	tb := d.r.Sc.Tables[ti]
	col := d.g.intn(len(tb.Cols))
	val := d.g.genValue(&tb.Cols[col])
	return d.both(fmt.Sprintf("Update(%s, row %d, %s = %s)", tb.Name, h, tb.Cols[col].Name, renderValue(tb.Cols[col], val)),
		func(db *hostdb.Database) error { _, err := db.Update(tb.Name, h, col, val); return err })
}

// step applies one generated operation to one generated table.
func (d *dmlDriver) step() error {
	ti := d.g.intn(len(d.r.Sc.Tables))
	tb := d.r.Sc.Tables[ti]
	switch p := d.g.rng.Float64(); {
	case p < 0.20:
		return d.insert(ti, 1+d.g.intn(3))
	case p < 0.65: // update: a loaded row, or a row inserted since the last Load
		h, ok := d.pickRow(ti, p >= 0.45)
		if !ok {
			return nil
		}
		return d.update(ti, h)
	case p < 0.80: // delete, of either kind of row
		h, ok := d.pickRow(ti, d.g.chance(0.5))
		if !ok {
			return nil
		}
		d.live[ti][h] = false
		return d.both(fmt.Sprintf("Delete(%s, row %d)", tb.Name, h),
			func(db *hostdb.Database) error { _, err := db.Delete(tb.Name, h); return err })
	case p < 0.93:
		return d.both(fmt.Sprintf("Checkpoint(%s)", tb.Name),
			func(db *hostdb.Database) error { return db.Checkpoint(tb.Name) })
	default:
		d.loaded[ti] = len(d.live[ti])
		return d.both(fmt.Sprintf("Load(%s)", tb.Name),
			func(db *hostdb.Database) error { _, err := db.Load(tb.Name, d.r.loadOpts(db)); return err })
	}
}

// checkpointAll makes every replica current, so the strict offload lanes are
// admissible.
func (d *dmlDriver) checkpointAll() error {
	return d.both("Checkpoint(all)", func(db *hostdb.Database) error { return db.CheckpointAll() })
}

// fail completes a mismatch with the DML that led to it.
func (d *dmlDriver) fail(m *Mismatch) string {
	m.Detail += "\nDML applied, in order, to both databases (replay regenerates it from the seed):\n  " +
		strings.Join(d.log, "\n  ")
	return m.Reproducer()
}

// checkOldPlan is the §4.3 isolation lane: bind sql at the current SCN, let
// mutate publish newer versions of the tables it reads, then compile and
// execute the older plan — it must still return the pre-mutation answer,
// through the private old-SCN snapshot.
func (d *dmlDriver) checkOldPlan(sql string, mutate func() error) *Mismatch {
	r := d.r
	before, err := r.primary.Query(sql, engines[0].opts)
	r.Executed++
	if err != nil {
		return nil // rejected queries are the differential check's business
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil
	}
	type bound struct {
		name string
		exec func() (*ops.Relation, error)
	}
	var plans []bound
	for _, db := range []*hostdb.Database{r.primary, r.alt} {
		node, err := sqlparse.Bind(stmt, db, db.CurrentSCN())
		if err != nil {
			return r.mismatch("isolation", sql, fmt.Sprintf("host executed the query but binding failed: %v", err))
		}
		name := "primary"
		if db == r.alt {
			name = "alt"
		}
		plans = append(plans, bound{name, func() (*ops.Relation, error) {
			compiled, err := qcomp.Compile(node)
			if err != nil {
				return nil, err
			}
			return compiled.Execute(qef.NewContext(qef.ModeX86))
		}})
	}
	if err := mutate(); err != nil {
		return r.mismatch("isolation", sql, err.Error())
	}
	want := bag(before.Rel)
	for _, p := range plans {
		rel, err := p.exec()
		if err != nil {
			return r.mismatch("isolation", sql, fmt.Sprintf("%s: plan bound before the DML failed after it: %v", p.name, err))
		}
		if diff := diffBags(want, bag(rel)); diff != "" {
			return r.mismatch("isolation", sql, fmt.Sprintf(
				"%s: plan bound before the DML, executed after it, vs the pre-DML host answer: %s", p.name, diff))
		}
	}
	return nil
}

// TestDMLDifferential soaks replica maintenance: per scenario, rounds of
// generated DML (checkpointed and reloaded at generated points) are applied
// to both databases; after each round one query is bound, overtaken by more
// DML and executed at its old SCN, and generated queries run on every lane.
func TestDMLDifferential(t *testing.T) {
	n := *flagN / 2
	if n < 60 {
		n = 60
	}
	const rounds, queriesPerRound = 4, 5
	checked, applied := 0, 0
	for scen := 0; checked < n; scen++ {
		g := New(*flagSeed + 424243 + int64(scen)*1_000_003)
		r, err := NewRunner(g.NewScenario())
		if err != nil {
			t.Fatalf("scenario %d: %v", scen, err)
		}
		d := newDMLDriver(g, r)
		steps := func(k int) error {
			for i := 0; i < k; i++ {
				if err := d.step(); err != nil {
					return err
				}
			}
			return d.checkpointAll()
		}
		for round := 0; round < rounds && checked < n; round++ {
			if err := steps(4 + g.intn(8)); err != nil {
				t.Fatalf("%s", d.fail(r.mismatch("dml", "", err.Error())))
			}
			overtake := func() error { return steps(2 + g.intn(4)) }
			if m := d.checkOldPlan(g.NextQuery().SQL(), overtake); m != nil {
				t.Fatalf("%s", d.fail(m))
			}
			// The same with a journaled insert under the plan: every table
			// gets a row that is still in the journal when the plan is bound
			// and is updated before its checkpoint. The unit carrying the
			// insert's SCN must hold the row as inserted, not as it is now.
			for ti := range r.Sc.Tables {
				if err := d.insert(ti, 1); err != nil {
					t.Fatalf("%s", d.fail(r.mismatch("dml", "", err.Error())))
				}
			}
			overwrite := func() error {
				for ti := range r.Sc.Tables {
					h := len(d.live[ti]) - 1
					for i := 0; i < 3; i++ { // most columns of a 1–4 column row
						if err := d.update(ti, h); err != nil {
							return err
						}
					}
				}
				return d.checkpointAll()
			}
			if m := d.checkOldPlan(g.NextQuery().SQL(), overwrite); m != nil {
				t.Fatalf("%s", d.fail(m))
			}
			for i := 0; i < queriesPerRound && checked < n; i++ {
				if m := r.CheckSQL(g.NextQuery().SQL()); m != nil {
					t.Fatalf("%s", d.fail(m))
				}
				checked++
			}
		}
		applied += len(d.log)
		r.Close()
	}
	t.Logf("dml: %d queries checked across %d engines after %d DML operations", checked, len(engines), applied)
}
