package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Live query introspection: an ActiveSet tracks every in-flight query from
// issue to completion. It is also the QueryID authority — hostdb and the
// cluster tray draw IDs from the same set, so a fleet has one ID space. The
// set is a reusable slot slab with a free list (no per-query map churn); a
// registration hands back a handle that writes phase updates and deregisters
// on Done.

// ActiveQuery is a point-in-time view of one in-flight query.
type ActiveQuery struct {
	ID      uint64        `json:"id"`
	SQL     string        `json:"sql"`
	Mode    string        `json:"mode"`  // requested engine: "auto", "host", "x86", "dpu"
	Nodes   int           `json:"nodes"` // tray fan-out; 1 for single-SoC
	Phase   string        `json:"phase"` // "queued", "executing", "merging", ...
	Elapsed time.Duration `json:"elapsed_ns"`
}

type activeSlot struct {
	inUse  bool
	id     uint64
	sql    string
	mode   string
	nodes  int
	phase  string
	start  time.Time
	cancel context.CancelFunc
}

// ActiveSet tracks in-flight queries and allocates QueryIDs.
type ActiveSet struct {
	mu     sync.Mutex
	nextID uint64
	slots  []activeSlot
	free   []int // indexes of unused slots
	inUse  int
}

// NewActiveSet returns an empty set.
func NewActiveSet() *ActiveSet { return &ActiveSet{} }

// NextID allocates the next QueryID (monotonic from 1). Nil-safe.
func (s *ActiveSet) NextID() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	s.mu.Unlock()
	return id
}

// ActiveHandle refers to one registered query. The zero handle is inert, so
// callers on a nil set can use it unconditionally.
type ActiveHandle struct {
	set  *ActiveSet
	slot int
	id   uint64
}

// Register adds a query to the set. The SQL is truncated like journal
// records; cancel (optional) is invoked by Cancel(id). Returns an inert
// handle on a nil set.
func (s *ActiveSet) Register(id uint64, sql, mode string, nodes int, cancel context.CancelFunc) ActiveHandle {
	if s == nil {
		return ActiveHandle{}
	}
	if len(sql) > maxJournalSQL {
		sql = sql[:maxJournalSQL]
	}
	s.mu.Lock()
	var idx int
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, activeSlot{})
		idx = len(s.slots) - 1
	}
	s.slots[idx] = activeSlot{
		inUse: true, id: id, sql: sql, mode: mode, nodes: nodes,
		phase: "issued", start: time.Now(), cancel: cancel,
	}
	s.inUse++
	s.mu.Unlock()
	return ActiveHandle{set: s, slot: idx, id: id}
}

// SetPhase updates the query's phase label. Inert on the zero handle and
// after Done.
func (h ActiveHandle) SetPhase(phase string) {
	if h.set == nil {
		return
	}
	h.set.mu.Lock()
	if sl := &h.set.slots[h.slot]; sl.inUse && sl.id == h.id {
		sl.phase = phase
	}
	h.set.mu.Unlock()
}

// Elapsed returns the time since registration (0 for the zero handle or
// after Done).
func (h ActiveHandle) Elapsed() time.Duration {
	if h.set == nil {
		return 0
	}
	h.set.mu.Lock()
	defer h.set.mu.Unlock()
	if sl := &h.set.slots[h.slot]; sl.inUse && sl.id == h.id {
		return time.Since(sl.start)
	}
	return 0
}

// Done removes the query from the set, recycling its slot. Idempotent.
func (h ActiveHandle) Done() {
	if h.set == nil {
		return
	}
	h.set.mu.Lock()
	if sl := &h.set.slots[h.slot]; sl.inUse && sl.id == h.id {
		*sl = activeSlot{}
		h.set.free = append(h.set.free, h.slot)
		h.set.inUse--
	}
	h.set.mu.Unlock()
}

// Len returns the number of in-flight queries.
func (s *ActiveSet) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inUse
}

// Snapshot returns the in-flight queries sorted by ID (issue order).
func (s *ActiveSet) Snapshot() []ActiveQuery {
	if s == nil {
		return nil
	}
	now := time.Now()
	s.mu.Lock()
	out := make([]ActiveQuery, 0, s.inUse)
	for i := range s.slots {
		sl := &s.slots[i]
		if !sl.inUse {
			continue
		}
		out = append(out, ActiveQuery{
			ID: sl.id, SQL: sl.sql, Mode: sl.mode, Nodes: sl.nodes,
			Phase: sl.phase, Elapsed: now.Sub(sl.start),
		})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Cancel invokes the registered cancel function of query id. Returns false
// when the id is not in flight or was registered without a cancel function.
func (s *ActiveSet) Cancel(id uint64) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	var cancel context.CancelFunc
	for i := range s.slots {
		if sl := &s.slots[i]; sl.inUse && sl.id == id {
			cancel = sl.cancel
			break
		}
	}
	s.mu.Unlock()
	if cancel == nil {
		return false
	}
	cancel()
	return true
}
