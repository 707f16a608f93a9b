package cluster_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"rapid/internal/cluster"
	"rapid/internal/obs"
	"rapid/internal/power"
	"rapid/internal/qef"
	"rapid/internal/tpch"
)

// TestDistributedTraceGoldenStructure is the golden-structure test for
// stitched distributed traces: a 4-node TPC-H Q12 run with trace recording
// on must produce one Chrome-trace process with a coordinator lane plus one
// lane per node, fragment profiles that pass the accounting invariants and
// reconcile with the tray's per-node counters, and flow events that match
// the exchange records exactly.
func TestDistributedTraceGoldenStructure(t *testing.T) {
	const nodes = 4
	db := tpchHost(t)
	tray := newTray(t, db, cluster.Config{Nodes: nodes})
	defer tray.Close()
	q, _ := tpch.QueryByName("Q12") // co-partitioned join + shuffle-free agg + gather

	res, err := tray.Query(q.SQL, cluster.QueryOptions{Mode: qef.ModeDPU, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("Trace empty with QueryOptions.Trace set")
	}

	// Step shape: exactly one of NodeProfiles / Coord / Exchange per step,
	// and the exchange steps are res.Exchanges' records, one-to-one in order.
	var exSpans []*obs.ExchangeSpan
	var coordCycles, nodeCycles int64
	perNode := make([]int64, nodes)
	for _, st := range res.Trace {
		set := 0
		if st.NodeProfiles != nil {
			set++
		}
		if st.Coord != nil {
			set++
		}
		if st.Exchange != nil {
			set++
		}
		if set != 1 {
			t.Fatalf("step %q sets %d groups, want exactly 1", st.Label, set)
		}
		switch {
		case st.Exchange != nil:
			exSpans = append(exSpans, st.Exchange)
		case st.Coord != nil:
			if err := st.Coord.CheckInvariants(); err != nil {
				t.Fatalf("coordinator fragment %q: %v", st.Label, err)
			}
			coordCycles += st.Coord.TotalCycles()
		default:
			for i, p := range st.NodeProfiles {
				if p == nil {
					continue
				}
				if err := p.CheckInvariants(); err != nil {
					t.Fatalf("node %d fragment %q: %v", i, st.Label, err)
				}
				perNode[i] += p.TotalCycles()
				nodeCycles += p.TotalCycles()
			}
		}
	}
	if len(exSpans) != len(res.Exchanges) {
		t.Fatalf("trace has %d exchange steps, result has %d exchanges", len(exSpans), len(res.Exchanges))
	}
	var wantFlows int
	for i, sp := range exSpans {
		if sp != res.Exchanges[i] {
			t.Fatalf("exchange step %d (%s %s) is not the record res.Exchanges[%d]", i, sp.Kind, sp.Label, i)
		}
		var rows int64
		for _, f := range sp.Flows() {
			rows += f.Rows
		}
		if rows != sp.MovedRows {
			t.Fatalf("exchange %d (%s): flow rows sum to %d, MovedRows is %d", i, sp.Kind, rows, sp.MovedRows)
		}
		wantFlows += len(sp.Flows())
	}
	// Q12 always ends in a gather of the partial aggregates: 4 contributing
	// nodes means at least 4 flows even when the join is fully co-located.
	if wantFlows < nodes {
		t.Fatalf("only %d flows; the final gather alone contributes %d", wantFlows, nodes)
	}

	// Fragment cycle sums reconcile with the tray's own counters.
	for i := range perNode {
		if perNode[i] != res.PerNode[i].Cycles {
			t.Fatalf("node %d: trace fragments sum to %d cycles, PerNode reports %d", i, perNode[i], res.PerNode[i].Cycles)
		}
	}
	if got := nodeCycles + coordCycles; got != res.TotalCycles {
		t.Fatalf("trace cycles %d (nodes %d + coord %d) != TotalCycles %d", got, nodeCycles, coordCycles, res.TotalCycles)
	}

	// Rendered trace: one process, a named lane per node plus the
	// coordinator, and one flow start/finish pair per cross-node stream.
	b := obs.NewTraceBuilder()
	b.AddDistributedQuery("Q12", qef.ModeDPU.String(), nodes, res.Trace)
	data, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	lanes := map[int]string{}
	pids := map[int]bool{}
	starts, finishes := 0, 0
	var flowRows int64
	for _, ev := range doc.TraceEvents {
		pids[ev.Pid] = true
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			lanes[ev.Tid], _ = ev.Args["name"].(string)
		case ev.Ph == "s":
			starts++
			flowRows += int64(ev.Args["rows"].(float64))
		case ev.Ph == "f":
			finishes++
		}
	}
	if len(pids) != 1 {
		t.Fatalf("trace spans %d processes, want 1", len(pids))
	}
	if len(lanes) != nodes+1 {
		t.Fatalf("trace has %d lanes, want %d (coordinator + %d nodes)", len(lanes), nodes+1, nodes)
	}
	if lanes[0] != "coordinator" {
		t.Fatalf("tid 0 named %q, want coordinator", lanes[0])
	}
	for i := 0; i < nodes; i++ {
		if want := "node " + string(rune('0'+i)); lanes[i+1] != want {
			t.Fatalf("tid %d named %q, want %q", i+1, lanes[i+1], want)
		}
	}
	if starts != wantFlows || finishes != wantFlows {
		t.Fatalf("flow events %d/%d, want %d starts and finishes (one per exchange stream)", starts, finishes, wantFlows)
	}
	var wantRows int64
	for _, st := range res.Exchanges {
		wantRows += st.MovedRows
	}
	if flowRows != wantRows {
		t.Fatalf("flow rows total %d, exchange MovedRows total %d", flowRows, wantRows)
	}
}

// TestFragmentProfilesReconcile: every node and coordinator fragment of a
// traced ModeDPU run passes the accounting AND the energy invariants — a
// fragment's simulated time is the makespan of its own per-core deltas, so its
// activity energy stays under the provisioned bound — and each node's
// fragments add up to that node's whole-query bill exactly. Fragment sim
// times are not summed: fragments overlap cores.
func TestFragmentProfilesReconcile(t *testing.T) {
	const nodes = 4
	tray := newTray(t, tpchHost(t), cluster.Config{Nodes: nodes})
	em := power.DefaultEnergyModel()
	for _, name := range []string{"Q1", "Q3", "Q4", "Q5", "Q6", "Q10", "Q12", "Q14", "Q18", "Q19"} {
		q, _ := tpch.QueryByName(name)
		res, err := tray.Query(q.SQL, cluster.QueryOptions{Mode: qef.ModeDPU, Trace: true, NoCache: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check := func(who, label string, p *obs.Profile) {
			t.Helper()
			if err := p.CheckInvariants(); err != nil {
				t.Errorf("%s %s fragment %q: %v", name, who, label, err)
			}
			if err := p.CheckEnergyInvariants(em); err != nil {
				t.Errorf("%s %s fragment %q: %v", name, who, label, err)
			}
		}
		sum := make([]cluster.NodeStats, nodes)
		for _, st := range res.Trace {
			if st.Coord != nil {
				check("coordinator", st.Label, st.Coord)
			}
			for i, p := range st.NodeProfiles {
				if p == nil {
					continue
				}
				check(fmt.Sprintf("node %d", i), st.Label, p)
				tot := p.Totals()
				sum[i].Cycles += p.TotalCycles()
				sum[i].DMSReadBytes += tot.DMSReadBytes
				sum[i].DMSWriteBytes += tot.DMSWriteBytes
			}
		}
		for i, got := range sum {
			want := res.PerNode[i]
			want.SimSeconds = 0
			if got != want {
				t.Errorf("%s node %d: fragments sum to %+v, whole query billed %+v", name, i, got, want)
			}
		}
	}
}

// TestTrayTraceOffByDefault pins that trace recording costs nothing unless
// asked for: no Trace steps without the option.
func TestTrayTraceOffByDefault(t *testing.T) {
	db := tpchHost(t)
	tray := newTray(t, db, cluster.Config{Nodes: 2})
	defer tray.Close()
	q, _ := tpch.QueryByName("Q6")
	res, err := tray.Query(q.SQL, cluster.QueryOptions{Mode: qef.ModeX86})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatalf("Trace recorded without QueryOptions.Trace: %d steps", len(res.Trace))
	}
}
