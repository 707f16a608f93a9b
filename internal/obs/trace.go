package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace-event export: profiles rendered as the JSON array format
// understood by chrome://tracing and ui.perfetto.dev. Each query becomes a
// process (pid), each core a thread (tid), and each operator span a
// complete ("X") event on every core it ran on, with the span's counters
// and activity energy in args. The engine records per-span per-core
// aggregates rather than wall-clock intervals, so events within a core are
// laid out sequentially in producer-to-consumer order — lane lengths and
// proportions are exact, start offsets are synthetic.

type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	ID    int            `json:"id,omitempty"` // flow-event binding ("s"/"f" pairs)
	BP    string         `json:"bp,omitempty"` // flow binding point ("e" = enclosing slice)
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	TsUS  float64        `json:"ts"`
	DurUS *float64       `json:"dur,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// TraceBuilder accumulates queries into one Chrome trace.
type TraceBuilder struct {
	events   []traceEvent
	nextPid  int
	nextFlow int
}

// NewTraceBuilder returns an empty trace.
func NewTraceBuilder() *TraceBuilder { return &TraceBuilder{nextPid: 1, nextFlow: 1} }

// Empty reports whether no query has been added.
func (b *TraceBuilder) Empty() bool { return b == nil || len(b.events) == 0 }

func meta(name string, pid, tid int, key, val string) traceEvent {
	return traceEvent{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{key: val}}
}

// coreSeconds is how long counters measured on one core kept it busy: on
// the DPU the longer of compute and DMS time (double buffering overlaps
// them), natively the wall time.
func (p *Profile) coreSeconds(c spanCounters) float64 {
	if !p.isDPU() {
		return float64(c.wallNs) / 1e9
	}
	return max(float64(c.cycles)/p.FreqHz, c.readSec+c.writeSec)
}

// spanEvent is operator d's complete ("X") event for counters c — one
// core's, or a node's fold — with the counters and activity energy in args.
func (p *Profile) spanEvent(d SpanDef, c spanCounters, pid, tid int, tsUS, durSec float64) traceEvent {
	args := map[string]any{
		"cycles":          c.cycles,
		"rows_in":         c.rowsIn,
		"rows_out":        c.rowsOut,
		"dms_read_bytes":  c.readBytes,
		"dms_write_bytes": c.writeBytes,
	}
	if d.Detail != "" {
		args["detail"] = d.Detail
	}
	if p.isDPU() {
		cfj, rfj, wfj := defaultEnergyModel().ActivityFJ(c.cycles, c.readBytes, c.writeBytes)
		args["energy_uj"] = fjJoules(cfj+rfj+wfj) * 1e6
	}
	dur := durSec * 1e6
	return traceEvent{
		Name: d.Name, Cat: string(d.Kind), Ph: "X",
		Pid: pid, Tid: tid, TsUS: tsUS, DurUS: &dur,
		Args: args,
	}
}

// AddQuery renders one profile as a new process in the trace. A nil or
// empty profile adds nothing.
func (b *TraceBuilder) AddQuery(name string, p *Profile) {
	if b == nil || p == nil || len(p.Defs) == 0 {
		return
	}
	pid := b.nextPid
	b.nextPid++
	label := fmt.Sprintf("%s (%s)", name, p.Mode)
	b.events = append(b.events, meta("process_name", pid, 0, "name", label))

	// Per-core cursor: each core's spans are laid end to end. Iterate defs
	// in reverse so producers (sources) come before their consumers — the
	// compiler emits consumer-before-producer.
	cursor := make([]float64, p.Cores)
	coresUsed := make([]bool, p.Cores)
	for i := len(p.Defs) - 1; i >= 0; i-- {
		for core, c := range p.spans[i].perCore {
			durSec := p.coreSeconds(c)
			if durSec == 0 && c.rowsIn == 0 && c.rowsOut == 0 {
				continue
			}
			coresUsed[core] = true
			b.events = append(b.events, p.spanEvent(p.Defs[i], c, pid, core, cursor[core], durSec))
			cursor[core] += durSec * 1e6
		}
	}
	for core, used := range coresUsed {
		if used {
			b.events = append(b.events, meta("thread_name", pid, core, "name", fmt.Sprintf("core %d", core)))
		}
	}
}

// Render writes the accumulated trace as Chrome trace-event JSON
// ({"traceEvents": [...]}, loadable in chrome://tracing and Perfetto).
func (b *TraceBuilder) Render(w io.Writer) error {
	events := b.events
	if events == nil {
		events = []traceEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}

// JSON renders the trace to a byte slice.
func (b *TraceBuilder) JSON() ([]byte, error) {
	var buf bytes.Buffer
	if err := b.Render(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
