package obs

import "testing"

func TestExchangeSpanFlows(t *testing.T) {
	// Shuffle/broadcast: one flow per non-zero cross-node stream (the
	// co-located one is none); the rows sum to MovedRows exactly.
	sh := &ExchangeSpan{Kind: "shuffle", MovedRows: 7, Streams: [][]int64{{2, 3}, {4, 0}}}
	flows := sh.Flows()
	if len(flows) != 2 {
		t.Fatalf("shuffle flows = %d, want 2", len(flows))
	}
	var sum int64
	for _, f := range flows {
		if f.Src == f.Dst {
			t.Fatalf("self-flow %+v", f)
		}
		if f.Dst < 0 {
			t.Fatalf("shuffle flow to coordinator: %+v", f)
		}
		sum += f.Rows
	}
	if sum != sh.MovedRows {
		t.Fatalf("flow rows sum to %d, MovedRows is %d", sum, sh.MovedRows)
	}

	// Gather: every contributing source flows to the coordinator, the
	// destination past the nodes (Dst -1).
	g := &ExchangeSpan{Kind: "gather", MovedRows: 9, Streams: [][]int64{{0, 0, 0, 4}, {0, 0, 0, 0}, {0, 0, 0, 5}}}
	gf := g.Flows()
	if len(gf) != 2 {
		t.Fatalf("gather flows = %d, want 2 (node 1 contributed nothing)", len(gf))
	}
	sum = 0
	for _, f := range gf {
		if f.Dst != -1 {
			t.Fatalf("gather flow dst = %d, want -1 (coordinator)", f.Dst)
		}
		sum += f.Rows
	}
	if sum != g.MovedRows {
		t.Fatalf("gather flow rows sum to %d, MovedRows is %d", sum, g.MovedRows)
	}
}

// fragProfile builds a one-operator finalized DPU profile with the given
// per-core cycles, for lane-layout tests.
func fragProfile(cycles ...int64) *Profile {
	p := NewProfile("dpu", len(cycles), 1e9, []SpanDef{{ID: 0, Name: "scan", Kind: KindPipeline}})
	for core, cy := range cycles {
		p.Span(0).AddCycles(core, cy)
		p.Span(0).TickOut(core, 10)
	}
	return p
}

func TestAddDistributedQueryStructure(t *testing.T) {
	const nodes = 2
	steps := []DistStep{
		{Label: "scan", NodeProfiles: []*Profile{fragProfile(1000, 2000), fragProfile(500)}},
		{Label: "shuffle", Exchange: &ExchangeSpan{
			Kind: "shuffle", Label: "k", Seconds: 1e-3, MovedRows: 3,
			PerSourceRows: []int64{2, 1}, PerDestRows: []int64{1, 2},
			Streams: [][]int64{{0, 2}, {1, 0}},
		}},
		{Label: "gather", Exchange: &ExchangeSpan{
			Kind: "gather", Label: "result", Seconds: 2e-3, MovedRows: 5,
			RowsOut: 5, PerSourceRows: []int64{3, 2}, PerDestRows: []int64{0, 0, 5},
			Streams: [][]int64{{0, 0, 3}, {0, 0, 2}},
		}},
		{Label: "merge", Coord: fragProfile(4000)},
	}
	b := NewTraceBuilder()
	b.AddDistributedQuery("Q", "dpu", nodes, steps)

	// One lane per node plus the coordinator, named via thread_name metadata.
	threadNames := map[int]string{}
	var procName string
	for _, ev := range b.events {
		if ev.Ph != "M" {
			continue
		}
		switch ev.Name {
		case "process_name":
			procName = ev.Args["name"].(string)
		case "thread_name":
			threadNames[ev.Tid] = ev.Args["name"].(string)
		}
	}
	if procName != "Q (dpu, 2 nodes)" {
		t.Fatalf("process name = %q", procName)
	}
	want := map[int]string{0: "coordinator", 1: "node 0", 2: "node 1"}
	if len(threadNames) != len(want) {
		t.Fatalf("thread lanes = %v, want %v", threadNames, want)
	}
	for tid, name := range want {
		if threadNames[tid] != name {
			t.Fatalf("tid %d named %q, want %q", tid, threadNames[tid], name)
		}
	}

	// Flow events come in s/f pairs with matching IDs, source on the sender
	// lane, finish on the receiver lane, each carrying the stream rows.
	starts := map[int]traceEvent{}
	finishes := map[int]traceEvent{}
	for _, ev := range b.events {
		switch ev.Ph {
		case "s":
			starts[ev.ID] = ev
		case "f":
			if ev.BP != "e" {
				t.Fatalf("flow finish without bp=e: %+v", ev)
			}
			finishes[ev.ID] = ev
		}
	}
	// 2 shuffle streams + 2 gather streams.
	if len(starts) != 4 || len(finishes) != 4 {
		t.Fatalf("flow pairs = %d/%d, want 4/4", len(starts), len(finishes))
	}
	var flowRows int64
	for id, s := range starts {
		f, ok := finishes[id]
		if !ok {
			t.Fatalf("flow %d has no finish event", id)
		}
		if f.TsUS <= s.TsUS {
			t.Fatalf("flow %d finish at %.3fus not after start %.3fus", id, f.TsUS, s.TsUS)
		}
		if s.Args["rows"] != f.Args["rows"] {
			t.Fatalf("flow %d rows differ: %v vs %v", id, s.Args["rows"], f.Args["rows"])
		}
		flowRows += s.Args["rows"].(int64)
	}
	if flowRows != 3+5 {
		t.Fatalf("total flow rows = %d, want 8 (shuffle 3 + gather 5)", flowRows)
	}

	// Lane layout: fragment slices only on node lanes, coordinator fragment
	// on tid 0 after the gather; every complete event has a duration.
	var coordFrag, nodeFrags int
	for _, ev := range b.events {
		if ev.Ph != "X" {
			continue
		}
		if ev.DurUS == nil {
			t.Fatalf("complete event without duration: %+v", ev)
		}
		if ev.Cat == string(KindPipeline) {
			if ev.Tid == 0 {
				coordFrag++
			} else {
				nodeFrags++
			}
		}
	}
	if nodeFrags != 2 || coordFrag != 1 {
		t.Fatalf("fragment slices node/coord = %d/%d, want 2/1", nodeFrags, coordFrag)
	}

	// A second query gets a fresh pid and fresh flow IDs.
	b.AddDistributedQuery("Q2", "dpu", nodes, steps)
	pids := map[int]bool{}
	for _, ev := range b.events {
		pids[ev.Pid] = true
	}
	if len(pids) != 2 {
		t.Fatalf("pids = %v, want 2 distinct processes", pids)
	}
}
