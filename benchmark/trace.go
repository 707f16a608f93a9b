package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one statement
// share its name in query and hang off one root through parent.
type span struct {
	name       string
	query      string
	start, end time.Duration // since the tracer's epoch
	parent     int           // index into tracer.spans; -1 for a root
	lane       int           // Chrome-trace thread: one per pass
	args       map[string]any
}

// tracer keeps spans in memory; they are written out once, when the
// benchmark ends. It is used from one goroutine only.
type tracer struct {
	epoch time.Time
	spans []span
	lane  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name, query string, parent int) int {
	t.spans = append(t.spans, span{name: name, query: query, parent: parent, lane: t.lane, start: time.Since(t.epoch), end: -1})
	return len(t.spans) - 1
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.end = time.Since(t.epoch)
	return s.end - s.start
}

// child records an interval measured elsewhere (a tray trace step) under
// parent, laid out from the given offset into the parent.
func (t *tracer) child(name string, parent int, offset, dur time.Duration, args map[string]any) {
	p := t.spans[parent]
	t.spans = append(t.spans, span{name: name, query: p.query, parent: parent, lane: p.lane,
		start: p.start + offset, end: p.start + offset + dur, args: args})
}

// selfTimes returns, per span name, how often it occurred, its total time
// and its self time: the span's duration minus the part its children cover.
func (t *tracer) selfTimes() []layerTime {
	covered := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	byName := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := byName[s.name]
		if lt == nil {
			lt = &layerTime{name: s.name}
			byName[s.name] = lt
		}
		d := s.end - s.start
		lt.count++
		lt.total += d
		if self := d - covered[i]; self > 0 {
			lt.self += self
		}
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].total > out[b].total })
	return out
}

type layerTime struct {
	name        string
	count       int
	total, self time.Duration
}

// printSelfTimes writes the per-layer table of a traced run.
func (t *tracer) printSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, lt := range t.selfTimes() {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", lt.name, lt.count, ms(lt.total), ms(lt.self))
	}
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev): complete events, one thread lane
// per traced pass, nesting by time containment.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"id": i, "parent": s.parent, "query": s.query}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, event{Name: s.name, Cat: s.query, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: s.lane, Args: args})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
