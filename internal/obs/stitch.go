package obs

import "fmt"

// Distributed trace stitching: a tray query executes as per-node plan
// fragments interleaved with exchanges (shuffle / broadcast / gather). The
// cluster layer records the execution as an ordered []DistStep — fragment
// steps carrying one finalized Profile per participating node, exchange
// steps carrying an ExchangeSpan — and AddDistributedQuery renders them as
// ONE Chrome-trace process: thread 0 is the coordinator lane, thread i+1 is
// node i's lane. Fragment spans are laid sequentially per lane (span
// duration = the node's critical path over its cores); exchanges appear as
// send/recv slices on the participating lanes with Chrome flow events
// ("s"/"f") for every cross-node data stream, so shuffles, broadcasts and
// gathers read as arrows between lanes. Like the single-query export, lane
// lengths and proportions are exact while start offsets are synthetic.

// ExchangeSpan is the one record of an executed exchange: the tray lists it
// in its result, prints it in EXPLAIN ANALYZE and lays it out here. An
// exchange states its kind, stream matrix and link time; the cluster derives
// every count from the matrix (obs does not import the cluster package).
type ExchangeSpan struct {
	Kind    string // "shuffle", "broadcast", "gather"
	Label   string
	Seconds float64 // modeled serialized link time

	// Streams[src][dst] is the rows of each source→destination stream,
	// co-located deliveries included. Destination len(Streams) is the
	// coordinator, where a gather's streams go.
	Streams [][]int64

	RowsIn, RowsOut       int64 // rows entering from the sources; Σ Streams
	MovedRows, MovedBytes int64 // cross-node streams only
	Tiles                 int64 // link messages of the cross-node streams
	// PerSourceRows and PerDestRows are Streams' row and column sums.
	PerSourceRows, PerDestRows []int64
}

// FlowEdge is one cross-node data stream of an exchange. Dst == -1 means
// the coordinator.
type FlowEdge struct {
	Src, Dst int
	Rows     int64
}

// Flows returns the exchange's cross-node streams. The per-stream rows sum
// to MovedRows exactly — the contract the golden-structure test pins.
func (e *ExchangeSpan) Flows() []FlowEdge {
	var out []FlowEdge
	for s, row := range e.Streams {
		for d, rows := range row {
			if rows > 0 && d != s {
				if d == len(e.Streams) {
					d = -1
				}
				out = append(out, FlowEdge{Src: s, Dst: d, Rows: rows})
			}
		}
	}
	return out
}

// DistStep is one step of a distributed execution, in order. Exactly one
// group of fields is set: NodeProfiles (a barrier-synchronized per-node
// fragment), Coord (a coordinator-side fragment), or Exchange.
type DistStep struct {
	Label        string
	NodeProfiles []*Profile // indexed by node; nil = node did not run
	Coord        *Profile
	Exchange     *ExchangeSpan
}

// AddDistributedQuery renders one distributed query as a new process: a
// coordinator lane plus one lane per node, fragments and exchanges laid in
// step order. A query with no steps adds nothing.
func (b *TraceBuilder) AddDistributedQuery(name, mode string, nodes int, steps []DistStep) {
	if b == nil || nodes <= 0 || len(steps) == 0 {
		return
	}
	pid := b.nextPid
	b.nextPid++
	label := fmt.Sprintf("%s (%s, %d nodes)", name, mode, nodes)
	b.events = append(b.events, meta("process_name", pid, 0, "name", label))
	b.events = append(b.events, meta("thread_name", pid, 0, "name", "coordinator"))
	for i := 0; i < nodes; i++ {
		b.events = append(b.events, meta("thread_name", pid, i+1, "name", fmt.Sprintf("node %d", i)))
	}

	// cursor[0] is the coordinator lane, cursor[i+1] node i's; in seconds.
	cursor := make([]float64, nodes+1)
	for _, st := range steps {
		switch {
		case st.Exchange != nil:
			b.layExchange(pid, nodes, cursor, st.Exchange)
		case st.Coord != nil:
			// Coordinator fragments run after their gathered inputs, which
			// already advanced lane 0 past the nodes.
			cursor[0] = b.layFragment(pid, 0, st.Coord, cursor[0])
		default:
			// Node fragments run concurrently and join before the next step
			// (the engine barrier-syncs them), so all node lanes advance to
			// the slowest participant.
			end := 0.0
			for i, p := range st.NodeProfiles {
				if i >= nodes {
					break
				}
				if p == nil || len(p.Defs) == 0 {
					continue
				}
				cursor[i+1] = b.layFragment(pid, i+1, p, cursor[i+1])
				if cursor[i+1] > end {
					end = cursor[i+1]
				}
			}
			for i := 1; i <= nodes; i++ {
				if cursor[i] < end {
					cursor[i] = end
				}
			}
		}
	}
}

// layFragment lays one fragment profile's spans sequentially on lane tid
// starting at `at` seconds, and returns the lane end. Each span's duration
// is the node's critical path for that operator: the max over cores of the
// per-core duration (cores within a node run in parallel); its args carry
// the node totals.
func (b *TraceBuilder) layFragment(pid, tid int, p *Profile, at float64) float64 {
	cur := at
	// Reverse def order: producers before consumers (see AddQuery).
	for i := len(p.Defs) - 1; i >= 0; i-- {
		s := p.spans[i]
		var durSec float64
		for _, c := range s.perCore {
			durSec = max(durSec, p.coreSeconds(c))
		}
		c := s.fold()
		if durSec == 0 && c.rowsIn == 0 && c.rowsOut == 0 {
			continue
		}
		b.events = append(b.events, p.spanEvent(p.Defs[i], c, pid, tid, cur*1e6, durSec))
		cur += durSec
	}
	return cur
}

// layExchange renders one exchange: send slices on every contributing
// source lane over the first half of the link interval, recv slices on
// every destination lane (the coordinator for gather) over the second half,
// and one flow event pair per cross-node stream, carrying the stream's
// exact row count. All node lanes (and the coordinator for gather) advance
// to the exchange end — the link serializes the tray.
func (b *TraceBuilder) layExchange(pid, nodes int, cursor []float64, ex *ExchangeSpan) {
	start := 0.0
	for i := 1; i <= nodes; i++ {
		if cursor[i] > start {
			start = cursor[i]
		}
	}
	gather := ex.Kind == "gather"
	if gather && cursor[0] > start {
		start = cursor[0]
	}
	half := ex.Seconds / 2
	sendTs, recvTs := start, start+half
	name := fmt.Sprintf("%s (%s)", ex.Kind, ex.Label)

	for s, rows := range ex.PerSourceRows {
		if rows == 0 || s >= nodes {
			continue
		}
		dur := half * 1e6
		b.events = append(b.events, traceEvent{
			Name: name + " send", Cat: "exchange", Ph: "X",
			Pid: pid, Tid: s + 1, TsUS: sendTs * 1e6, DurUS: &dur,
			Args: map[string]any{"rows": rows},
		})
	}
	for d, rows := range ex.PerDestRows {
		tid := d + 1
		if d == len(ex.Streams) {
			tid = 0 // the coordinator
		}
		if rows == 0 || tid > nodes {
			continue
		}
		dur := half * 1e6
		b.events = append(b.events, traceEvent{
			Name: name + " recv", Cat: "exchange", Ph: "X",
			Pid: pid, Tid: tid, TsUS: recvTs * 1e6, DurUS: &dur,
			Args: map[string]any{"rows": rows},
		})
	}

	// One flow per cross-node stream; anchored inside the send/recv slices.
	for _, f := range ex.Flows() {
		id := b.nextFlow
		b.nextFlow++
		dstTid := 0 // coordinator
		if f.Dst >= 0 {
			dstTid = f.Dst + 1
		}
		args := map[string]any{"rows": f.Rows}
		b.events = append(b.events, traceEvent{
			Name: name, Cat: "dataflow", Ph: "s", ID: id,
			Pid: pid, Tid: f.Src + 1, TsUS: (sendTs + half/4) * 1e6, Args: args,
		})
		b.events = append(b.events, traceEvent{
			Name: name, Cat: "dataflow", Ph: "f", ID: id, BP: "e",
			Pid: pid, Tid: dstTid, TsUS: (recvTs + half/4) * 1e6, Args: args,
		})
	}

	end := start + ex.Seconds
	for i := 1; i <= nodes; i++ {
		cursor[i] = end
	}
	if gather {
		cursor[0] = end
	}
}
