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

	var rep EnergyReport
	if p.isDPU() {
		rep = p.Energy(defaultEnergyModel())
	}

	// Per-core cursor: each core's spans are laid end to end. Iterate defs
	// in reverse so producers (sources) come before their consumers — the
	// compiler emits consumer-before-producer.
	cursor := make([]float64, p.Cores)
	coresUsed := make([]bool, p.Cores)
	for i := len(p.Defs) - 1; i >= 0; i-- {
		d := p.Defs[i]
		s := p.spans[i]
		for core := 0; core < p.Cores; core++ {
			var durSec float64
			if p.isDPU() {
				durSec = float64(s.cycles[core]) / p.FreqHz
				if dms := s.readSec[core] + s.writeSec[core]; dms > durSec {
					durSec = dms
				}
			} else {
				durSec = float64(s.wallNs[core]) / 1e9
			}
			active := durSec > 0 || s.rowsIn[core] != 0 || s.rowsOut[core] != 0
			if !active {
				continue
			}
			coresUsed[core] = true
			args := map[string]any{
				"cycles":          s.cycles[core],
				"rows_in":         s.rowsIn[core],
				"rows_out":        s.rowsOut[core],
				"dms_read_bytes":  s.readBytes[core],
				"dms_write_bytes": s.writeBytes[core],
			}
			if d.Detail != "" {
				args["detail"] = d.Detail
			}
			if p.isDPU() {
				cfj, rfj, wfj := rep.Model.ActivityFJ(s.cycles[core], s.readBytes[core], s.writeBytes[core])
				args["energy_uj"] = fjJoules(cfj+rfj+wfj) * 1e6
			}
			dur := durSec * 1e6
			b.events = append(b.events, traceEvent{
				Name: d.Name, Cat: string(d.Kind), Ph: "X",
				Pid: pid, Tid: core, TsUS: cursor[core], DurUS: &dur,
				Args: args,
			})
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
