package obs

import (
	"encoding/json"
	"testing"
)

// decodeTrace parses the export back the way a trace viewer would.
func decodeTrace(t *testing.T, raw []byte) []map[string]any {
	t.Helper()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, raw)
	}
	return doc.TraceEvents
}

// chromeTrace renders one profile as a standalone trace, the way
// `rapid-cli -trace` does for each query.
func chromeTrace(name string, p *Profile) ([]byte, error) {
	b := NewTraceBuilder()
	b.AddQuery(name, p)
	return b.JSON()
}

func TestChromeTraceDPU(t *testing.T) {
	p := goldenProfile("dpu")
	raw, err := chromeTrace("q1", p)
	if err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, raw)

	var complete, metadata int
	byName := map[string][]map[string]any{}
	for _, e := range events {
		switch e["ph"] {
		case "X":
			complete++
			name := e["name"].(string)
			byName[name] = append(byName[name], e)
			// Every complete event carries a non-negative duration and the
			// counter args the viewer surfaces on click.
			if e["dur"].(float64) < 0 {
				t.Errorf("%s: negative duration", name)
			}
			args := e["args"].(map[string]any)
			for _, k := range []string{"cycles", "rows_in", "rows_out", "dms_read_bytes", "dms_write_bytes", "energy_uj"} {
				if _, ok := args[k]; !ok {
					t.Errorf("%s: missing arg %q", name, k)
				}
			}
		case "M":
			metadata++
		default:
			t.Errorf("unexpected phase %v", e["ph"])
		}
	}
	if complete == 0 || metadata == 0 {
		t.Fatalf("trace has %d complete and %d metadata events", complete, metadata)
	}
	// The scan ran on both cores: two lanes.
	if got := len(byName["Scan(t)"]); got != 2 {
		t.Fatalf("Scan(t) events = %d, want 2 (one per core)", got)
	}
	// Kinds map to categories.
	if cat := byName["Scan(t)"][0]["cat"]; cat != "source" {
		t.Errorf("scan category = %v, want source", cat)
	}
	if cat := byName["GroupBy"][0]["cat"]; cat != "blocking" {
		t.Errorf("groupby category = %v, want blocking", cat)
	}
	// Per-core event energies sum to the whole-query activity energy.
	rep := p.Energy(defaultEnergyModel())
	var evSum float64
	for _, evs := range byName {
		for _, e := range evs {
			evSum += e["args"].(map[string]any)["energy_uj"].(float64)
		}
	}
	want := fjJoules(rep.Query.ActivityFJ()) * 1e6
	if diff := evSum - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("trace energy %g µJ != query activity %g µJ", evSum, want)
	}
	// Events on one core do not overlap (sequential layout).
	lanes := map[float64]float64{} // tid -> furthest end seen so far
	for _, e := range events {
		if e["ph"] != "X" {
			continue
		}
		tid := e["tid"].(float64)
		ts := e["ts"].(float64)
		if ts < lanes[tid] {
			t.Errorf("tid %v: event at ts %v overlaps previous end %v", tid, ts, lanes[tid])
		}
		lanes[tid] = ts + e["dur"].(float64)
	}
}

func TestChromeTraceX86UsesWallTime(t *testing.T) {
	p := goldenProfile("x86")
	raw, err := chromeTrace("qx", p)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range decodeTrace(t, raw) {
		if e["ph"] != "X" {
			continue
		}
		args := e["args"].(map[string]any)
		if _, ok := args["energy_uj"]; ok {
			t.Error("x86 trace must not claim activity energy")
		}
		if e["name"] == "Scan(t)" {
			if dur := e["dur"].(float64); dur != 210 { // 210000 ns = 210 µs
				t.Errorf("scan duration = %v µs, want 210", dur)
			}
		}
	}
}

func TestTraceBuilderMultiQueryAndNilSafety(t *testing.T) {
	b := NewTraceBuilder()
	if !b.Empty() {
		t.Fatal("new builder should be empty")
	}
	b.AddQuery("nil", nil) // must not panic or add events
	if !b.Empty() {
		t.Fatal("nil profile must add nothing")
	}
	b.AddQuery("a", goldenProfile("dpu"))
	b.AddQuery("b", goldenProfile("x86"))
	raw, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	pids := map[float64]bool{}
	for _, e := range decodeTrace(t, raw) {
		pids[e["pid"].(float64)] = true
	}
	if len(pids) != 2 {
		t.Fatalf("pids = %v, want two distinct processes", pids)
	}
	// Empty builder still writes a valid document.
	raw, err = NewTraceBuilder().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if events := decodeTrace(t, raw); len(events) != 0 {
		t.Fatalf("empty builder produced %d events", len(events))
	}
}
