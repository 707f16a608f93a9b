package obs

import (
	"strings"
	"sync"
	"testing"
)

func twoSpanProfile() *Profile {
	defs := []SpanDef{
		{ID: 0, Parent: -1, Name: "GroupBy", Conserves: true},
		{ID: 1, Parent: 0, Name: "Scan(t)"},
	}
	return NewProfile("dpu", 2, 800e6, defs)
}

func TestProfileInvariantsHold(t *testing.T) {
	p := twoSpanProfile()
	scan, gb := p.Span(1), p.Span(0)
	scan.AddCycles(0, 100)
	scan.AddCycles(1, 50)
	scan.AddTransfer(0, false, 4096, 1e-6)
	scan.TickIn(0, 256)
	scan.TickOut(0, 200)
	gb.AddCycles(0, 40)
	gb.TickIn(0, 200)
	gb.AddRowsOut(4)
	gb.AddTransfer(1, true, 128, 1e-7)
	p.Finalize(Totals{
		SimSeconds:      2e-6,
		BusReadSeconds:  1e-6,
		BusWriteSeconds: 1e-7,
		CoreCycles:      []int64{140, 50},
		DMSReadBytes:    4096,
		DMSWriteBytes:   128,
		DMSReadSeconds:  1e-6,
		DMSWriteSeconds: 1e-7,
	})
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	out := p.Format()
	for _, want := range []string{"GroupBy", "Scan(t)", "total", "190"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q in:\n%s", want, out)
		}
	}
	sum := p.Summary()
	if sum.TotalCycles != 190 || len(sum.Ops) != 2 {
		t.Fatalf("summary: %+v", sum)
	}
}

func TestProfileInvariantViolationsDetected(t *testing.T) {
	mk := func(mut func(p *Profile)) error {
		p := twoSpanProfile()
		p.Span(1).AddCycles(0, 10)
		p.Span(1).AddRowsOut(5)
		p.Span(0).AddRowsIn(5)
		mut(p)
		return p.CheckInvariants()
	}
	cases := []struct {
		name string
		mut  func(p *Profile)
		want string
	}{
		{"cycle mismatch", func(p *Profile) {
			p.Finalize(Totals{CoreCycles: []int64{11, 0}})
		}, "cycle spans"},
		{"byte mismatch", func(p *Profile) {
			p.Finalize(Totals{CoreCycles: []int64{10, 0}, DMSReadBytes: 1})
		}, "read bytes"},
		{"sim below bus", func(p *Profile) {
			p.Finalize(Totals{CoreCycles: []int64{10, 0}, SimSeconds: 1e-9, BusReadSeconds: 1e-3})
		}, "below bus"},
		{"row mismatch", func(p *Profile) {
			p.Span(0).AddRowsIn(1)
			p.Finalize(Totals{CoreCycles: []int64{10, 0}})
		}, "rows-in"},
	}
	for _, tc := range cases {
		err := mk(tc.mut)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	// Adapted profiles relax only the row invariant.
	err := mk(func(p *Profile) {
		p.Span(0).AddRowsIn(1)
		p.MarkAdapted()
		p.Finalize(Totals{CoreCycles: []int64{10, 0}})
	})
	if err != nil {
		t.Errorf("adapted profile should skip row conservation: %v", err)
	}
	if err := mk(func(p *Profile) {}); err == nil {
		t.Error("unfinalized profile must fail invariants")
	}
}

func TestNilSafety(t *testing.T) {
	var p *Profile
	s := p.Span(3)
	s.AddCycles(0, 1)
	s.AddWallNs(0, 1)
	s.AddTransfer(0, true, 1, 1)
	s.TickIn(0, 1)
	s.TickOut(0, 1)
	s.AddRowsIn(1)
	s.AddRowsOut(1)
	p.MarkAdapted()
	p.Finalize(Totals{})
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if p.Format() != "" {
		t.Error("nil profile should format empty")
	}

	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Add(2)
	r.Histogram("z").Observe(1)
	r.Describe("x", "help")
	if r.Snapshot() != nil || r.Values() != nil || r.Counter("x").Value() != 0 || r.Histogram("z").View().Count != 0 {
		t.Error("nil registry must be inert")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Values()["g"]; got != 8000 {
		t.Fatalf("gauge = %d, want 8000", got)
	}
	r.Gauge("g").Set(5)
	if got := r.Gauge("g").Value(); got != 5 {
		t.Fatalf("gauge after Set = %d", got)
	}
	if snap := r.Snapshot(); len(snap) != 2 || snap[0].Name != "c" || snap[1].Name != "g" {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", 0.001, 0.01, 0.1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(float64(i%4) * 0.004) // 0, .004, .008, .012
			}
		}(i)
	}
	wg.Wait()
	v := h.View()
	if v.Count != 8000 {
		t.Fatalf("count = %d, want 8000", v.Count)
	}
	var total int64
	for _, c := range v.Counts {
		total += c
	}
	if total != 8000 {
		t.Fatalf("bucket sum = %d", total)
	}
	// 2000 observations of 0 land in the first bucket; .004/.008 in the
	// second; .012 in the third; none overflow.
	if v.Counts[0] != 2000 || v.Counts[1] != 4000 || v.Counts[2] != 2000 || v.Counts[3] != 0 {
		t.Fatalf("bucket counts = %v", v.Counts)
	}
	wantSum := 2000 * (0.004 + 0.008 + 0.012)
	if diff := v.Sum - wantSum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum = %v, want %v", v.Sum, wantSum)
	}
}

func TestSnapshotDeterministicAndHelp(t *testing.T) {
	r := NewRegistry()
	r.Gauge("b_gauge").Set(2)
	r.Counter("a_counter").Add(1)
	r.Histogram("c_hist", 1).Observe(0.5)
	r.Describe("a_counter", "custom help")
	r.Counter("hostdb_queries_total").Inc()
	for i := 0; i < 5; i++ {
		snap := r.Snapshot()
		var names []string
		for _, m := range snap {
			names = append(names, m.Name)
		}
		want := []string{"a_counter", "b_gauge", "c_hist", "hostdb_queries_total"}
		if len(names) != len(want) {
			t.Fatalf("names = %v", names)
		}
		for j := range want {
			if names[j] != want[j] {
				t.Fatalf("snapshot order not deterministic: %v", names)
			}
		}
		if snap[0].Help != "custom help" {
			t.Fatalf("Describe not honored: %q", snap[0].Help)
		}
		if snap[3].Help == "" {
			t.Fatal("standard metric missing default help")
		}
		if snap[2].Kind != KindHistogram || snap[2].Hist == nil || snap[2].Hist.Count != 1 {
			t.Fatalf("histogram snapshot: %+v", snap[2])
		}
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge reuse of a counter name must panic")
		}
	}()
	r.Gauge("m")
}
