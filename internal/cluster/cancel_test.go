package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"rapid/internal/cluster"
	"rapid/internal/coltypes"
	"rapid/internal/hostdb"
	"rapid/internal/obs"
	"rapid/internal/qef"
	"rapid/internal/sched"
	"rapid/internal/storage"
	"rapid/internal/tpch"
)

// lateTimer is a context past its deadline whose timer has not fired.
type lateTimer struct{ context.Context }

func (lateTimer) Deadline() (time.Time, bool) { return time.Now().Add(-time.Second), true }

// TestTrayDeadlineCancelsAllNodes: a deadline expiring mid-query — during
// admission, node-local execution or an exchange — must cancel every node
// within one tile / work unit, return the context error, and leak no
// goroutines. The everything-sharded 8-node layout maximizes the exchange
// work a cancellation can land in the middle of.
func TestTrayDeadlineCancelsAllNodes(t *testing.T) {
	db := tpchHost(t)
	tray := newTray(t, db, cluster.Config{Nodes: 8, ReplicateMaxRows: -1})
	q, _ := tpch.QueryByName("Q12") // shuffle + gather + partial aggregation

	// Warm up once so lazily started node pools don't count as leaks.
	if _, err := tray.Query(q.SQL, cluster.QueryOptions{Mode: qef.ModeX86}); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	before := runtime.NumGoroutine()

	for i := 0; i < 20; i++ {
		// Sweep the deadline across the query's lifetime so different runs
		// expire in different phases (admission, scan, shuffle, merge).
		d := time.Duration(1+i*i*25) * time.Microsecond
		ctx, cancel := context.WithTimeout(context.Background(), d)
		start := time.Now()
		_, err := tray.QueryCtx(ctx, q.SQL, cluster.QueryOptions{Mode: qef.ModeX86})
		took := time.Since(start)
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("iter %d: err = %v, want context.DeadlineExceeded or success", i, err)
		}
		// Cancellation is observed per exchange tile / scheduler work unit:
		// even generously, the whole tray must stop well under a second.
		if err != nil && took > 2*time.Second {
			t.Fatalf("iter %d: cancellation took %v", i, took)
		}
	}

	// A deadline already past on entry is refused even if its timer never
	// fires (the tray twin of the hostdb entry check).
	if _, err := tray.QueryCtx(lateTimer{context.Background()}, q.SQL, cluster.QueryOptions{Mode: qef.ModeX86}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unfired timer: err = %v, want context.DeadlineExceeded", err)
	}

	// All node admissions must be back and no per-node executor goroutine
	// may outlive its canceled query. Give the runtime a moment to settle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after 20 canceled tray queries",
				before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTrayOverloadSheds: one overloaded node sheds the whole tray query
// with ErrOverloaded, and the admissions already granted on earlier nodes
// are released — repeated sheds must not exhaust the healthy nodes, and the
// tray must run normally once the hot node drains.
func TestTrayOverloadSheds(t *testing.T) {
	db := tpchHost(t)
	tray := newTray(t, db, cluster.Config{
		Nodes: 4,
		Sched: sched.Config{MaxConcurrent: 1, MaxQueued: 1},
	})
	q, _ := tpch.QueryByName("Q6")

	// Saturate node 2: one admission running, one waiter filling the queue.
	hot := tray.NodeScheduler(2)
	hold, err := hot.Admit(context.Background(), sched.Request{})
	if err != nil {
		t.Fatalf("hold: %v", err)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			adm, err := hot.Admit(wctx, sched.Request{})
			if err == nil {
				adm.Release()
				return
			}
			if errors.Is(err, sched.ErrOverloaded) {
				// The probe below transiently held the queue slot; retry
				// until this waiter occupies it.
				time.Sleep(100 * time.Microsecond)
				continue
			}
			return // wctx canceled: test shutting down
		}
	}()
	// Wait until the waiter occupies the queue slot, so the tray query's
	// admission on node 2 fast-fails instead of queueing. The probe uses a
	// short deadline: if it wins the race for the empty queue slot it bails
	// out with DeadlineExceeded and frees the slot for the waiter.
	for i := 0; ; i++ {
		pctx, pcancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, perr := hot.Admit(pctx, sched.Request{})
		pcancel()
		if errors.Is(perr, sched.ErrOverloaded) {
			break
		}
		if perr == nil {
			t.Fatal("probe admission unexpectedly succeeded on a held scheduler")
		}
		if i > 500 {
			t.Fatal("queue slot never filled")
		}
		time.Sleep(time.Millisecond)
	}

	// Every attempt sheds on node 2; nodes 0 and 1 must have their
	// admissions released each time or the third attempt would hang on
	// node 0's single slot.
	for i := 0; i < 3; i++ {
		if _, err := tray.Query(q.SQL, cluster.QueryOptions{Mode: qef.ModeX86}); !errors.Is(err, sched.ErrOverloaded) {
			t.Fatalf("attempt %d: err = %v, want sched.ErrOverloaded", i, err)
		}
	}

	wcancel()
	wg.Wait()
	hold.Release()
	if _, err := tray.Query(q.SQL, cluster.QueryOptions{Mode: qef.ModeX86}); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}

// TestTrayConcurrentQueryRace drives one shared tray from many goroutines —
// half running to completion and checked against the host oracle, half
// canceled midway — so the race detector sees admission, exchange,
// cancellation fan-out and telemetry running concurrently.
func TestTrayConcurrentQueryRace(t *testing.T) {
	db := tpchHost(t)
	tray := newTray(t, db, cluster.Config{Nodes: 4, ReplicateMaxRows: -1})
	q, _ := tpch.QueryByName("Q12")
	want, err := db.Query(q.SQL, hostdb.QueryOptions{Mode: hostdb.ForceHost})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if (w+i)%2 == 0 {
					ctx, cancel := context.WithTimeout(context.Background(),
						time.Duration(1+w*100+i*37)*time.Microsecond)
					_, err := tray.QueryCtx(ctx, q.SQL, cluster.QueryOptions{Mode: qef.ModeX86})
					cancel()
					if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, sched.ErrOverloaded) {
						errs <- fmt.Errorf("worker %d iter %d (canceled lane): %v", w, i, err)
						return
					}
					continue
				}
				res, err := tray.Query(q.SQL, cluster.QueryOptions{Mode: qef.ModeX86})
				if err != nil {
					if errors.Is(err, sched.ErrOverloaded) {
						continue // load shedding is correct behavior
					}
					errs <- fmt.Errorf("worker %d iter %d: %v", w, i, err)
					return
				}
				wb, gb := bag(want.Rel), bag(res.Rel)
				if len(wb) != len(gb) {
					errs <- fmt.Errorf("worker %d iter %d: rows host=%d tray=%d", w, i, len(wb), len(gb))
					return
				}
				for r := range wb {
					if wb[r] != gb[r] {
						errs <- fmt.Errorf("worker %d iter %d: row %d differs", w, i, r)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTrayCoordinatorIsAdmitted: the coordinator's merge runs in a session
// on the host database's scheduler, opened after every node's. A tray query
// waits for a held host slot and reports the wait, and a full host queue
// sheds it with ErrOverloaded, releasing the node admissions it took and
// journaling "shed". The nodes run one query at a time too: a coordinator
// admitted on a node's scheduler would wait on itself.
func TestTrayCoordinatorIsAdmitted(t *testing.T) {
	db := hostdb.NewWithConfig(nil, sched.Config{MaxConcurrent: 1, MaxQueued: 1})
	defer db.Close()
	schema := storage.MustSchema(
		storage.ColumnDef{Name: "k", Type: coltypes.Int()},
		storage.ColumnDef{Name: "g", Type: coltypes.Int()},
	)
	if _, err := db.CreateTable("facts", schema); err != nil {
		t.Fatal(err)
	}
	var rows [][]storage.Value
	for i := 0; i < 500; i++ {
		rows = append(rows, []storage.Value{storage.IntValue(int64(i)), storage.IntValue(int64(i % 7))})
	}
	if _, err := db.Insert("facts", rows); err != nil {
		t.Fatal(err)
	}
	tray, err := cluster.New(db, cluster.Config{Nodes: 2, ReplicateMaxRows: -1, Sched: sched.Config{MaxConcurrent: 1, MaxQueued: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer tray.Close()
	if err := tray.Load("facts", nil); err != nil {
		t.Fatal(err)
	}
	const sql = `SELECT g, COUNT(*) FROM facts GROUP BY g`
	opts := cluster.QueryOptions{Mode: qef.ModeX86, NoCache: true}
	host := db.Scheduler()

	t.Run("waits", func(t *testing.T) {
		hold, err := host.Admit(context.Background(), sched.Request{})
		if err != nil {
			t.Fatal(err)
		}
		time.AfterFunc(30*time.Millisecond, hold.Release)
		res, err := tray.Query(sql, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rel.Rows() != 7 {
			t.Fatalf("rows = %d, want 7 groups", res.Rel.Rows())
		}
		if res.QueueWait < 20*time.Millisecond {
			t.Fatalf("QueueWait = %v behind a host slot held for 30ms", res.QueueWait)
		}
	})

	t.Run("sheds", func(t *testing.T) {
		hold, err := host.Admit(context.Background(), sched.Request{})
		if err != nil {
			t.Fatal(err)
		}
		defer hold.Release()
		// A waiter takes the host's one queue slot; a probe with a short
		// deadline confirms it (a probe that wins the slot times out and
		// frees it again).
		wctx, wcancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				adm, err := host.Admit(wctx, sched.Request{})
				if err == nil {
					adm.Release()
					return
				}
				if !errors.Is(err, sched.ErrOverloaded) {
					return // wctx canceled
				}
				time.Sleep(100 * time.Microsecond)
			}
		}()
		defer func() { wcancel(); wg.Wait() }()
		for i := 0; ; i++ {
			pctx, pcancel := context.WithTimeout(context.Background(), time.Millisecond)
			_, perr := host.Admit(pctx, sched.Request{})
			pcancel()
			if errors.Is(perr, sched.ErrOverloaded) {
				break
			}
			if perr == nil {
				t.Fatal("probe admission succeeded on a held scheduler")
			}
			if i > 500 {
				t.Fatal("host queue slot never filled")
			}
			time.Sleep(time.Millisecond)
		}

		// Every node holds one slot: a shed that kept a node admission
		// would hang the next attempt, and the probes below.
		for i := 0; i < 3; i++ {
			if _, err := tray.Query(sql, opts); !errors.Is(err, sched.ErrOverloaded) {
				t.Fatalf("attempt %d: err = %v, want sched.ErrOverloaded", i, err)
			}
			if recs := db.QueryJournal().Tail(1); len(recs) != 1 || recs[0].Outcome != obs.OutcomeShed || recs[0].Nodes != 2 {
				t.Fatalf("attempt %d: journal tail = %+v, want a shed 2-node record", i, recs)
			}
		}
		for i := 0; i < tray.NumNodes(); i++ {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			adm, err := tray.NodeScheduler(i).Admit(ctx, sched.Request{})
			cancel()
			if err != nil {
				t.Fatalf("node %d still held after the sheds: %v", i, err)
			}
			adm.Release()
		}
	})
}
