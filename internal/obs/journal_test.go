package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestJournalRingBoundAndCounters(t *testing.T) {
	j := NewJournal(8)
	for i := 0; i < 20; i++ {
		j.Record(QueryRecord{ID: uint64(i + 1), Outcome: QueryOutcome(i % 4), SQL: "SELECT 1"})
	}
	if j.Total() != 20 {
		t.Fatalf("Total = %d, want 20", j.Total())
	}
	if j.Len() != 8 {
		t.Fatalf("Len = %d, want 8 (ring bound)", j.Len())
	}
	recs := j.Records()
	if len(recs) != 8 {
		t.Fatalf("Records len = %d, want 8", len(recs))
	}
	// Oldest-first: the newest 8 of 20 are IDs 13..20.
	for i, r := range recs {
		if want := uint64(13 + i); r.ID != want {
			t.Fatalf("Records[%d].ID = %d, want %d", i, r.ID, want)
		}
	}
	if tail := j.Tail(3); len(tail) != 3 || tail[2].ID != 20 {
		t.Fatalf("Tail(3) = %+v, want IDs 18,19,20", tail)
	}
	// Cumulative outcome counters survive eviction: 20 records cycling
	// through 4 outcomes is 5 each.
	var sum int64
	for _, o := range []QueryOutcome{OutcomeOK, OutcomeShed, OutcomeCanceled, OutcomeError} {
		if c := j.OutcomeCount(o); c != 5 {
			t.Fatalf("OutcomeCount(%s) = %d, want 5", o, c)
		}
		sum += j.OutcomeCount(o)
	}
	if sum != j.Total() {
		t.Fatalf("outcome counters sum to %d, total is %d", sum, j.Total())
	}
}

// TestJournalTailOfNoneOrLess: a count of zero or below asks for no records,
// and must not slice out of range.
func TestJournalTailOfNoneOrLess(t *testing.T) {
	j := NewJournal(4)
	j.Record(QueryRecord{ID: 1, SQL: "SELECT 1"})
	for _, n := range []int{-1, 0} {
		if tail := j.Tail(n); len(tail) != 0 {
			t.Errorf("Tail(%d) = %+v, want no records", n, tail)
		}
	}
	if tail := j.Tail(5); len(tail) != 1 || tail[0].ID != 1 {
		t.Errorf("Tail(5) = %+v, want the one record", tail)
	}
}

func TestJournalTruncatesSQLAndClampsOutcome(t *testing.T) {
	j := NewJournal(2)
	long := strings.Repeat("x", 2*maxJournalSQL)
	j.Record(QueryRecord{ID: 1, SQL: long, Outcome: QueryOutcome(99)})
	rec := j.Records()[0]
	if len(rec.SQL) != maxJournalSQL {
		t.Fatalf("SQL len = %d, want %d", len(rec.SQL), maxJournalSQL)
	}
	if rec.Outcome != OutcomeError {
		t.Fatalf("out-of-range outcome clamped to %s, want error", rec.Outcome)
	}
}

// TestQueryRecordJSONRoundTrip pins the record's JSON form — what
// /debug/queries serves: the outcome travels as its string, an empty error is
// omitted, and a consumer can parse a record back.
func TestQueryRecordJSONRoundTrip(t *testing.T) {
	for _, rec := range []QueryRecord{
		{ID: 1, SQL: "SELECT 1", Mode: "dpu", Outcome: OutcomeOK, Rows: 3},
		{ID: 2, SQL: "SELECT 2", Mode: "host", Outcome: OutcomeShed, Error: "overloaded"},
	} {
		raw, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("record not JSON: %v", err)
		}
		if m["outcome"] != rec.Outcome.String() {
			t.Fatalf("outcome = %v, want %q", m["outcome"], rec.Outcome)
		}
		if _, has := m["error"]; has != (rec.Error != "") {
			t.Fatalf("error field present = %v for %q", has, rec.Error)
		}
		var back QueryRecord
		if err := json.Unmarshal(raw, &back); err != nil || back != rec {
			t.Fatalf("round trip = %+v, %v; want %+v", back, err, rec)
		}
	}
	var o QueryOutcome
	if err := json.Unmarshal([]byte(`"retired"`), &o); err == nil {
		t.Fatal("unknown outcome string must not parse")
	}
}

func TestJournalRecordAllocationFree(t *testing.T) {
	j := NewJournal(16)
	rec := QueryRecord{ID: 1, SQL: "SELECT a, b FROM t WHERE a > 10", Mode: "dpu", Outcome: OutcomeOK}
	if avg := testing.AllocsPerRun(200, func() { j.Record(rec) }); avg != 0 {
		t.Fatalf("Record allocates %.1f allocs/op, want 0", avg)
	}
	sql := "SELECT  l_orderkey,  SUM(l_extendedprice) FROM lineitem WHERE l_tax > '0.02' GROUP BY l_orderkey"
	if avg := testing.AllocsPerRun(200, func() { _ = Fingerprint(sql) }); avg != 0 {
		t.Fatalf("Fingerprint allocates %.1f allocs/op, want 0", avg)
	}
}

func TestJournalConcurrentStorm(t *testing.T) {
	j := NewJournal(32)
	const writers, per = 16, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				j.Record(QueryRecord{ID: uint64(w*per + i), Outcome: QueryOutcome(i % 4)})
				if i%10 == 0 {
					_ = j.Records()
					_ = j.Total()
				}
			}
		}(w)
	}
	wg.Wait()
	if j.Total() != writers*per {
		t.Fatalf("Total = %d, want %d", j.Total(), writers*per)
	}
	if j.Len() != 32 {
		t.Fatalf("Len = %d, want ring bound 32", j.Len())
	}
	var sum int64
	for _, o := range []QueryOutcome{OutcomeOK, OutcomeShed, OutcomeCanceled, OutcomeError} {
		sum += j.OutcomeCount(o)
	}
	if sum != j.Total() {
		t.Fatalf("outcome counters sum to %d, total %d", sum, j.Total())
	}
}

func TestFingerprintNormalization(t *testing.T) {
	base := Fingerprint("SELECT a FROM t WHERE b = 'X y'")
	same := []string{
		"select a from t where b = 'X y'",
		"  SELECT\ta\nFROM   t WHERE b = 'X y'",
		"Select A From T Where B = 'X y'",
	}
	for _, s := range same {
		if Fingerprint(s) != base {
			t.Fatalf("Fingerprint(%q) differs from base", s)
		}
	}
	diff := []string{
		"SELECT a FROM t WHERE b = 'x y'", // literal case is significant
		"SELECT a FROM t WHERE b = 'Xy'",  // literal whitespace is significant
		"SELECT a FROM t WHERE c = 'X y'",
	}
	for _, s := range diff {
		if Fingerprint(s) == base {
			t.Fatalf("Fingerprint(%q) collides with base", s)
		}
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Record(QueryRecord{})
	if j.Total() != 0 || j.Len() != 0 || j.OutcomeCount(OutcomeOK) != 0 {
		t.Fatal("nil journal should report zeros")
	}
	if j.Records() != nil {
		t.Fatal("nil journal Records should be nil")
	}
}

func TestActiveSetLifecycle(t *testing.T) {
	s := NewActiveSet()
	if id := s.NextID(); id != 1 {
		t.Fatalf("first NextID = %d, want 1", id)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	h1 := s.Register(2, "SELECT 1", "dpu", 1, cancel1)
	h2 := s.Register(3, "SELECT 2", "auto", 4, nil)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	h1.SetPhase("executing")
	snap := s.Snapshot()
	if len(snap) != 2 || snap[0].ID != 2 || snap[1].ID != 3 {
		t.Fatalf("Snapshot = %+v, want IDs 2,3 sorted", snap)
	}
	if snap[0].Phase != "executing" || snap[1].Phase != "issued" {
		t.Fatalf("phases = %q,%q", snap[0].Phase, snap[1].Phase)
	}
	if snap[1].Nodes != 4 {
		t.Fatalf("Nodes = %d, want the registered 4", snap[1].Nodes)
	}
	// Cancel by ID invokes the registered CancelFunc.
	if !s.Cancel(2) {
		t.Fatal("Cancel(2) = false, want true")
	}
	if ctx1.Err() == nil {
		t.Fatal("cancel func was not invoked")
	}
	if s.Cancel(3) {
		t.Fatal("Cancel(3) should fail: registered without cancel func")
	}
	if s.Cancel(999) {
		t.Fatal("Cancel of unknown ID should fail")
	}
	// Done recycles slots; idempotent; stale handles are inert.
	h1.Done()
	h1.Done()
	if s.Len() != 1 {
		t.Fatalf("Len after Done = %d, want 1", s.Len())
	}
	h3 := s.Register(4, "SELECT 3", "x86", 1, nil)
	h1.SetPhase("stale") // must not touch the recycled slot
	if snap := s.Snapshot(); len(snap) != 2 {
		t.Fatalf("Len = %d, want 2", len(snap))
	} else {
		for _, q := range snap {
			if q.Phase == "stale" {
				t.Fatal("stale handle mutated a recycled slot")
			}
		}
	}
	h2.Done()
	h3.Done()
	if s.Len() != 0 {
		t.Fatalf("Len after all Done = %d, want 0", s.Len())
	}
}

func TestActiveSetSlotReuseNoGrowth(t *testing.T) {
	s := NewActiveSet()
	for i := 0; i < 100; i++ {
		h := s.Register(uint64(i+1), "SELECT 1", "dpu", 1, nil)
		h.Done()
	}
	s.mu.Lock()
	slots := len(s.slots)
	s.mu.Unlock()
	if slots != 1 {
		t.Fatalf("sequential register/done grew the slab to %d slots, want 1", slots)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 4, 5)
	want := []float64{1, 4, 16, 64, 256}
	if len(b) != len(want) {
		t.Fatalf("len = %d, want %d", len(b), len(want))
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("b[%d] = %g, want %g", i, b[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ExpBuckets(0, 2, 3) should panic")
		}
	}()
	ExpBuckets(0, 2, 3)
}

// BenchmarkJournalRecord guards the allocation-free hot path (run with
// -benchmem; the CI alloc-regression job asserts 0 allocs/op).
func BenchmarkJournalRecord(b *testing.B) {
	j := NewJournal(DefJournalCapacity)
	rec := QueryRecord{ID: 1, SQL: "SELECT a, b FROM t WHERE a > 10", Mode: "dpu", Outcome: OutcomeOK, WallNs: 12345}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.ID = uint64(i)
		j.Record(rec)
	}
}

// BenchmarkFingerprint guards the zero-allocation fingerprint path.
func BenchmarkFingerprint(b *testing.B) {
	sql := "SELECT l_orderkey, SUM(l_extendedprice) FROM lineitem WHERE l_shipdate > '1995-01-01' GROUP BY l_orderkey"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Fingerprint(sql)
	}
}

var _ = fmt.Sprintf // keep fmt for debug edits
