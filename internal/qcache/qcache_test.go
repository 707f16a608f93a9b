package qcache

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func fixedVersions(vs ...Version) func(string) (Version, bool) {
	return func(name string) (Version, bool) {
		for _, v := range vs {
			if v.Name == name {
				return v, true
			}
		}
		return Version{}, false
	}
}

func TestResultHitMissStale(t *testing.T) {
	c := New(Config{})
	k := Key{Template: 1, Params: 2, Mode: "x86", Nodes: 1}
	v1 := Version{Name: "t", MutSCN: 3, Epoch: 7}

	if _, st := c.GetResult(k, fixedVersions(v1)); st != Miss {
		t.Fatalf("want miss, got %v", st)
	}
	if !c.PutResult(k, &Result{Payload: "p", Bytes: 100, Versions: []Version{v1}}) {
		t.Fatal("put rejected")
	}
	r, st := c.GetResult(k, fixedVersions(v1))
	if st != Hit || r.Payload != "p" {
		t.Fatalf("want hit, got %v %v", st, r)
	}
	// Version vector moves -> stale, entry evicted.
	v2 := Version{Name: "t", MutSCN: 4, Epoch: 8}
	if _, st := c.GetResult(k, fixedVersions(v2)); st != Stale {
		t.Fatalf("want stale, got %v", st)
	}
	if _, st := c.GetResult(k, fixedVersions(v2)); st != Miss {
		t.Fatalf("stale entry must be removed; got %v", st)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Stale != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestEpochAloneInvalidates(t *testing.T) {
	c := New(Config{})
	k := Key{Template: 9}
	v := Version{Name: "t", MutSCN: 5, Epoch: 1}
	c.PutResult(k, &Result{Bytes: 1, Versions: []Version{v}})
	// Same mutation SCN, bumped epoch (checkpoint/compact path).
	if _, st := c.GetResult(k, fixedVersions(Version{Name: "t", MutSCN: 5, Epoch: 2})); st != Stale {
		t.Fatalf("epoch bump must invalidate, got %v", st)
	}
}

func TestLRUByteBudgetEviction(t *testing.T) {
	c := New(Config{MaxResultBytes: 2400}) // 300-byte entries are at the per-entry cap
	cur := fixedVersions(Version{Name: "t"})
	for i := 0; i < 9; i++ {
		c.PutResult(Key{Template: uint64(i)}, &Result{Bytes: 300, Versions: []Version{{Name: "t"}}})
	}
	// 9*300 > 2400: oldest (template 0) must be gone.
	if _, st := c.GetResult(Key{Template: 0}, cur); st != Miss {
		t.Fatal("oldest entry should be evicted")
	}
	if _, st := c.GetResult(Key{Template: 8}, cur); st != Hit {
		t.Fatal("newest entry should survive")
	}
	if s := c.Stats(); s.Evictions != 1 || s.ResidentBytes != 2400 || s.ResidentEntries != 8 {
		t.Fatalf("stats = %+v", s)
	}
	// Touch template 1, then overflow: template 2 (now LRU) goes first.
	c.GetResult(Key{Template: 1}, cur)
	c.PutResult(Key{Template: 9}, &Result{Bytes: 300, Versions: []Version{{Name: "t"}}})
	if _, st := c.GetResult(Key{Template: 1}, cur); st != Hit {
		t.Fatal("recently used entry must survive eviction")
	}
	if _, st := c.GetResult(Key{Template: 2}, cur); st != Miss {
		t.Fatal("LRU entry should have been evicted")
	}
}

func TestAdmissionPolicy(t *testing.T) {
	c := New(Config{MaxResultBytes: 800}) // per-entry cap 100
	if c.PutResult(Key{Template: 1}, &Result{Bytes: 101}) {
		t.Fatal("oversized result must be rejected")
	}
	if !c.PutResult(Key{Template: 3}, &Result{Bytes: 100}) {
		t.Fatal("conforming result must be admitted")
	}
	if s := c.Stats(); s.Rejects != 1 {
		t.Fatalf("rejects = %d", s.Rejects)
	}
}

func TestSingleflightCollapse(t *testing.T) {
	c := New(Config{})
	k := Key{Template: 42}
	var executions atomic.Int64
	var wg sync.WaitGroup
	results := make([]string, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				f, leader := c.Begin(k)
				if leader {
					executions.Add(1)
					time.Sleep(2 * time.Millisecond) // let followers pile on
					f.Finish(&Result{Payload: "r"})
					results[i] = "r"
					return
				}
				if r, ok := f.Wait(context.Background()); ok {
					results[i] = r.Payload.(string)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if got := executions.Load(); got != 1 {
		t.Fatalf("want exactly 1 execution, got %d", got)
	}
	for i, r := range results {
		if r != "r" {
			t.Fatalf("client %d got %q", i, r)
		}
	}
	if s := c.Stats(); s.Shared != 63 {
		t.Fatalf("shared = %d, want 63", s.Shared)
	}
}

func TestSingleflightLeaderFailureReleasesFollowers(t *testing.T) {
	c := New(Config{})
	k := Key{Template: 7}
	f, leader := c.Begin(k)
	if !leader {
		t.Fatal("expected leadership")
	}
	done := make(chan bool)
	go func() {
		f2, leader2 := c.Begin(k)
		if leader2 {
			t.Error("second Begin while flight open must follow")
			f2.Finish(nil)
			done <- false
			return
		}
		_, ok := f2.Wait(context.Background())
		done <- ok
	}()
	time.Sleep(time.Millisecond)
	f.Finish(nil) // leader failed
	if ok := <-done; ok {
		t.Fatal("follower of a failed leader must re-execute (ok=false)")
	}
	// Key must be free again.
	if _, leader := c.Begin(k); !leader {
		t.Fatal("key must be released after Finish")
	}
}

// TestBeginAfterPublicationOpensNoFlight: a client whose lookup missed just
// before a leader published, and who calls Begin just after that leader
// finished, must be sent back to the store instead of leading a second
// execution.
func TestBeginAfterPublicationOpensNoFlight(t *testing.T) {
	c := New(Config{})
	k := Key{Template: 9}
	leader, _ := c.Begin(k)
	entry := &Result{Bytes: 1, Versions: []Version{{Name: "t"}}}
	c.PutResult(k, entry)
	leader.Finish(entry)
	if f, leads := c.Begin(k); f != nil || leads {
		t.Fatalf("Begin with a published entry and no open flight = (%v, %v), want (nil, false)", f, leads)
	}
	current := func(string) (Version, bool) { return Version{Name: "t", MutSCN: 1}, true }
	if _, st := c.GetResult(k, current); st != Stale { // drops the entry
		t.Fatalf("lookup of the outdated entry = %v, want Stale", st)
	}
	if f, leads := c.Begin(k); f == nil || !leads {
		t.Fatal("Begin after the stale entry was dropped must lead")
	}
}

func TestSingleflightWaitRespectsContext(t *testing.T) {
	c := New(Config{})
	f, _ := c.Begin(Key{Template: 1})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	follower, leader := c.Begin(Key{Template: 1})
	if leader {
		t.Fatal("should follow")
	}
	if _, ok := follower.Wait(ctx); ok {
		t.Fatal("want ok=false on context timeout")
	}
	f.Finish(nil)
}

func TestPutResultReplacesExisting(t *testing.T) {
	c := New(Config{})
	k := Key{Template: 1}
	v := []Version{{Name: "t"}}
	c.PutResult(k, &Result{Payload: "a", Bytes: 10, Versions: v})
	c.PutResult(k, &Result{Payload: "b", Bytes: 20, Versions: v})
	r, st := c.GetResult(k, fixedVersions(Version{Name: "t"}))
	if st != Hit || r.Payload != "b" {
		t.Fatalf("want replaced entry, got %v %v", st, r)
	}
	if s := c.Stats(); s.ResidentBytes != 20 || s.ResidentEntries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}
