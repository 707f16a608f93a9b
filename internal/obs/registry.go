package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing engine metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta. Nil-safe.
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an engine metric that can move both ways (e.g. checkpoint lag).
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by delta. Nil-safe.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Set replaces the gauge value. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefLatencyBuckets are the default histogram bounds for query latencies:
// 100 µs to 10 s in a 1-2.5-5 progression, in seconds.
var DefLatencyBuckets = []float64{
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket distribution metric (cumulative rendering is
// left to the exporter). Observations are lock-free: per-bucket atomic
// counters plus a CAS-looped float sum, so concurrent queries never
// serialize on it.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; +Inf bucket is implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the observation sum
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	sort.Float64s(h.bounds)
	h.buckets = make([]atomic.Int64, len(h.bounds)+1)
	return h
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// HistView is a point-in-time copy of a histogram. Counts are per-bucket
// (not cumulative); Counts[i] pairs with Bounds[i], and the final extra
// element is the overflow (+Inf) bucket.
type HistView struct {
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// View snapshots the histogram. The bucket counts are read after the
// count/sum pair, so View never reports more observations in the buckets
// than in Count (it may briefly report fewer under concurrent writes).
func (h *Histogram) View() HistView {
	if h == nil {
		return HistView{}
	}
	v := HistView{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.buckets {
		v.Counts[i] = h.buckets[i].Load()
	}
	return v
}

// ExpBuckets returns n histogram bounds starting at start and growing by
// factor: start, start*factor, ... — the standard shape for cycle, byte and
// energy distributions that span many orders of magnitude.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("obs: ExpBuckets needs n > 0, start > 0, factor > 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Default bounds for the fleet histograms. Cycles cover 1k..~68G dpCore
// cycles (×4 steps), bytes 64 B..~4 GiB (×4), energy 1 µJ..~69 J in
// nanojoules (×4).
var (
	DefCycleBuckets    = ExpBuckets(1e3, 4, 13)
	DefBytesBuckets    = ExpBuckets(64, 4, 13)
	DefEnergyNJBuckets = ExpBuckets(1e3, 4, 13)
)

// MetricKind discriminates registry entries.
type MetricKind int

const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Metric is one entry of a registry snapshot.
type Metric struct {
	Name string
	Kind MetricKind
	Help string
	// Value carries counter and gauge readings; Hist carries histograms.
	Value int64
	Hist  *HistView
}

// Registry is a concurrency-safe name→metric map shared by everything that
// touches one Database: the host engine, the offload path and the QEF.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	kinds      map[string]MetricKind
	help       map[string]string
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		kinds:      make(map[string]MetricKind),
		help:       make(map[string]string),
	}
}

// claim registers name under kind, panicking on a kind conflict: one name
// must never render as two metric types (the exposition format forbids
// duplicates, and a silent second metric would corrupt dashboards).
func (r *Registry) claim(name string, kind MetricKind) {
	if prev, ok := r.kinds[name]; ok && prev != kind {
		panic(fmt.Sprintf("obs: metric %q already registered as %v, requested %v", name, prev, kind))
	}
	r.kinds[name] = kind
}

// Counter returns the named counter, creating it on first use. Nil-safe:
// on a nil registry it returns nil, and nil metrics ignore updates.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		r.claim(name, KindCounter)
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		r.claim(name, KindGauge)
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (DefLatencyBuckets when none are given). Later calls
// return the existing histogram regardless of bounds. Nil-safe.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		r.claim(name, KindHistogram)
		if len(bounds) == 0 {
			bounds = DefLatencyBuckets
		}
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Describe attaches help text to a metric name, shown by the Prometheus
// exporter. Engine-standard names have defaults (see help.go); Describe
// overrides them. Nil-safe.
func (r *Registry) Describe(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = help
}

// helpFor resolves help text under the lock.
func (r *Registry) helpFor(name string) string {
	if h, ok := r.help[name]; ok {
		return h
	}
	return defaultHelp[name]
}

// Snapshot returns every registered metric, sorted by name, with kind and
// help text resolved — the deterministic input to the Prometheus renderer
// and to tests.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Metric, 0, len(r.kinds))
	for n, c := range r.counters {
		out = append(out, Metric{Name: n, Kind: KindCounter, Help: r.helpFor(n), Value: c.Value()})
	}
	for n, g := range r.gauges {
		out = append(out, Metric{Name: n, Kind: KindGauge, Help: r.helpFor(n), Value: g.Value()})
	}
	for n, h := range r.histograms {
		v := h.View()
		out = append(out, Metric{Name: n, Kind: KindHistogram, Help: r.helpFor(n), Hist: &v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Values returns counter and gauge readings by name (histograms excluded) —
// the map form kept for assertion-style tests.
func (r *Registry) Values() map[string]int64 {
	if r == nil {
		return nil
	}
	snap := r.Snapshot()
	out := make(map[string]int64, len(snap))
	for _, m := range snap {
		if m.Kind != KindHistogram {
			out[m.Name] = m.Value
		}
	}
	return out
}
