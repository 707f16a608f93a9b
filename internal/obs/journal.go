package obs

import (
	"encoding/json"
	"fmt"
	"sync"
)

// Query journal: a bounded in-memory ring of structured completion records,
// one per issued query, fleet-wide (the multi-node tray shares the host's
// journal). The ring is a preallocated slab of value-type records — recording
// is a mutex-guarded struct copy, no per-query map churn or allocation — and
// cumulative outcome counters survive ring eviction, so reconciliation against
// the scheduler's admission counters never depends on ring capacity.

// QueryOutcome classifies how a query terminated.
type QueryOutcome int8

const (
	OutcomeOK       QueryOutcome = iota // completed with a result
	OutcomeShed                         // rejected by admission control (ErrOverloaded)
	OutcomeCanceled                     // context canceled or deadline exceeded
	OutcomeError                        // any other error
	numOutcomes
)

func (o QueryOutcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeShed:
		return "shed"
	case OutcomeCanceled:
		return "canceled"
	case OutcomeError:
		return "error"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the outcome as its string form (/debug/queries).
func (o QueryOutcome) MarshalJSON() ([]byte, error) {
	return json.Marshal(o.String())
}

// UnmarshalJSON parses the string form back, so /debug/queries consumers can
// round-trip records.
func (o *QueryOutcome) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch s {
	case "ok":
		*o = OutcomeOK
	case "shed":
		*o = OutcomeShed
	case "canceled":
		*o = OutcomeCanceled
	case "error":
		*o = OutcomeError
	default:
		return fmt.Errorf("obs: unknown query outcome %q", s)
	}
	return nil
}

// maxJournalSQL bounds the SQL text kept per record. Truncation slices the
// incoming string (no copy), so a record never pins more than the caller's
// original allocation.
const maxJournalSQL = 512

// QueryRecord is one journal entry. All fields are plain values; Record
// copies the struct into the ring slab.
type QueryRecord struct {
	ID          uint64       `json:"id"`
	Fingerprint uint64       `json:"fingerprint"`
	SQL         string       `json:"sql"`
	Mode        string       `json:"mode"`  // "host", "x86", "dpu"
	Nodes       int          `json:"nodes"` // tray fan-out; 1 for single-SoC
	Outcome     QueryOutcome `json:"outcome"`
	Error       string       `json:"error,omitempty"`
	Rows        int64        `json:"rows"`
	Cycles      int64        `json:"cycles"`           // total dpCore cycles (DPU offloads)
	EnergyNJ    int64        `json:"energy_nj"`        // activity+idle nanojoules (DPU offloads)
	NetBytes    int64        `json:"net_bytes"`        // exchange bytes moved (tray queries)
	QueueWaitNs int64        `json:"queue_wait_ns"`    // admission queue wait
	WallNs      int64        `json:"wall_ns"`          // end-to-end wall time
	DMEMHighNow int64        `json:"dmem_high_water"`  // max per-core DMEM bytes reserved
	Cache       string       `json:"cache,omitempty"`  // result-cache interaction: hit|miss|stale|bypass ("" = no cache)
	Start       int64        `json:"start_unix_nanos"` // completion records carry issue time
}

// Journal is the bounded completion ring plus cumulative counters. All
// methods are safe for concurrent use.
type Journal struct {
	mu        sync.Mutex
	ring      []QueryRecord // preallocated slab, len == cap
	next      int           // next write index
	total     int64         // records ever written (>= len when wrapped)
	byOutcome [numOutcomes]int64
}

// DefJournalCapacity is the default ring size.
const DefJournalCapacity = 1024

// NewJournal returns a journal holding the last capacity records
// (DefJournalCapacity if capacity <= 0).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefJournalCapacity
	}
	return &Journal{ring: make([]QueryRecord, capacity)}
}

// Record appends rec to the ring, evicting the oldest entry once full, and
// bumps the cumulative counters. It truncates SQL and is allocation-free.
// Nil-safe.
func (j *Journal) Record(rec QueryRecord) {
	if j == nil {
		return
	}
	if len(rec.SQL) > maxJournalSQL {
		rec.SQL = rec.SQL[:maxJournalSQL]
	}
	if rec.Outcome < 0 || rec.Outcome >= numOutcomes {
		rec.Outcome = OutcomeError
	}
	j.mu.Lock()
	j.ring[j.next] = rec
	j.next++
	if j.next == len(j.ring) {
		j.next = 0
	}
	j.total++
	j.byOutcome[rec.Outcome]++
	j.mu.Unlock()
}

// Total returns the number of records ever written (not bounded by the ring).
func (j *Journal) Total() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}

// OutcomeCount returns the cumulative count of records with outcome o.
func (j *Journal) OutcomeCount(o QueryOutcome) int64 {
	if j == nil || o < 0 || o >= numOutcomes {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.byOutcome[o]
}

// Len returns the number of records currently held (min(total, capacity)).
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lenLocked()
}

func (j *Journal) lenLocked() int {
	if j.total < int64(len(j.ring)) {
		return int(j.total)
	}
	return len(j.ring)
}

// Records returns a copy of the held records, oldest first.
func (j *Journal) Records() []QueryRecord {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n := j.lenLocked()
	out := make([]QueryRecord, 0, n)
	start := j.next - n
	if start < 0 {
		start += len(j.ring)
	}
	for i := 0; i < n; i++ {
		out = append(out, j.ring[(start+i)%len(j.ring)])
	}
	return out
}

// Tail returns the newest n records, oldest first; n ≤ 0 returns none.
func (j *Journal) Tail(n int) []QueryRecord {
	recs := j.Records()
	return recs[len(recs)-min(max(n, 0), len(recs)):]
}

// Fingerprint hashes SQL with whitespace runs collapsed and letters lowered
// outside string literals, so formatting variants of one statement share a
// fingerprint. FNV-1a 64-bit, computed without building the normalized
// string (zero allocations on the hot path).
func Fingerprint(sql string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	inWS := true   // leading whitespace dropped; runs collapse to one ' '
	inStr := false // inside a '...' literal: hash verbatim
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		if inStr {
			h = (h ^ uint64(c)) * prime64
			if c == '\'' {
				inStr = false
			}
			continue
		}
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			if !inWS {
				h = (h ^ uint64(' ')) * prime64
				inWS = true
			}
			continue
		case c >= 'A' && c <= 'Z':
			c += 'a' - 'A'
		case c == '\'':
			inStr = true
		}
		h = (h ^ uint64(c)) * prime64
		inWS = false
	}
	return h
}
