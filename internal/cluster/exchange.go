package cluster

import (
	"fmt"

	"rapid/internal/coltypes"
	"rapid/internal/obs"
	"rapid/internal/ops"
	"rapid/internal/storage"
)

// ExchangeKind classifies an exchange operator.
type ExchangeKind int

const (
	// Shuffle re-partitions per-node relations by a key column: every row
	// moves to the node its key hashes (or range-routes) to.
	Shuffle ExchangeKind = iota
	// Broadcast replicates every node's rows to all other nodes, producing
	// one full copy per node.
	Broadcast
	// Gather concentrates per-node relations at the coordinator.
	Gather
)

func (k ExchangeKind) String() string {
	switch k {
	case Shuffle:
		return "shuffle"
	case Broadcast:
		return "broadcast"
	case Gather:
		return "gather"
	}
	return fmt.Sprintf("ExchangeKind(%d)", int(k))
}

// ExchangeStats is the accounting record of one executed exchange — the
// source of the net_* counters and the conservation invariants (rows in ==
// rows out for shuffle/gather; rows out == rows in × N for broadcast; moved
// bytes == moved rows × 8 × cols, since exchanges ship the widened 8-byte
// tile format).
type ExchangeStats struct {
	Kind  ExchangeKind
	Label string
	// RowsIn is the total rows entering across all source nodes; RowsOut
	// the total rows delivered across all destinations.
	RowsIn, RowsOut int64
	// MovedRows/MovedBytes count only rows crossing the interconnect
	// (destination != source); co-located deliveries are free.
	MovedRows, MovedBytes int64
	// Tiles is the number of link messages (per source→destination stream,
	// LinkModel.TileRows rows each).
	Tiles int64
	// Seconds is the modeled serialized link time of the exchange.
	Seconds float64
	// PerNodeRows is rows delivered per destination (Shuffle/Broadcast) or
	// contributed per source (Gather).
	PerNodeRows []int64
	// PerSourceRows is rows contributed per source node (all kinds). For
	// Gather it aliases PerNodeRows' meaning.
	PerSourceRows []int64
	// MovedMatrix[src][dst] counts rows that crossed the interconnect per
	// source→destination stream (co-located deliveries excluded, so the
	// diagonal is zero). Nil for Gather, where every row flows to the
	// coordinator: PerSourceRows is the per-stream breakdown there. The
	// matrix total equals MovedRows exactly — trace flow events are built
	// from it.
	MovedMatrix [][]int64
}

// exchangeRowBytes is the wire width: exchanges ship tiles in the widened
// 8-byte-per-column format the engine's tile loops use.
func exchangeRowBytes(rel *ops.Relation) int { return 8 * rel.NumCols() }

// relBytes is the wire size of a whole relation.
func relBytes(rel *ops.Relation) int64 {
	return int64(rel.Rows()) * int64(exchangeRowBytes(rel))
}

// colBuilder accumulates destination columns for exchange outputs.
type colBuilder struct {
	meta ops.Col
	data []int64
}

func newBuilders(proto *ops.Relation) []colBuilder {
	bs := make([]colBuilder, proto.NumCols())
	for i, c := range proto.Cols {
		bs[i] = colBuilder{meta: ops.Col{Name: c.Name, Type: c.Type, Dict: c.Dict}}
	}
	return bs
}

func buildersRelation(bs []colBuilder) *ops.Relation {
	cols := make([]ops.Col, len(bs))
	for i, b := range bs {
		c := b.meta
		if b.data == nil {
			b.data = []int64{}
		}
		c.Data = coltypes.Of(b.data)
		cols[i] = c
	}
	return ops.MustRelation(cols)
}

// shuffle re-partitions per-node relations so row r lands on
// part.NodeFor(r[keyCol]). parts[i] is node i's input (nil treated empty);
// the result is indexed by destination node. Cancellation is observed every
// LinkModel.TileRows rows.
func (q *query) shuffle(parts []*ops.Relation, keyCol int, part *storage.ShardMap, label string) ([]*ops.Relation, error) {
	n := q.nodes()
	proto := firstNonNil(parts)
	outs := make([][]colBuilder, n)
	for d := 0; d < n; d++ {
		outs[d] = newBuilders(proto)
	}
	st := ExchangeStats{
		Kind: Shuffle, Label: label,
		PerNodeRows:   make([]int64, n),
		PerSourceRows: make([]int64, n),
	}
	rowBytes := exchangeRowBytes(proto)
	// movedPer[src][dst] counts cross-node rows for tile accounting.
	movedPer := make([][]int64, n)
	for s := range movedPer {
		movedPer[s] = make([]int64, n)
	}
	st.MovedMatrix = movedPer
	for src, rel := range parts {
		if rel == nil {
			continue
		}
		key := rel.Cols[keyCol].Data
		rows := rel.Rows()
		st.RowsIn += int64(rows)
		st.PerSourceRows[src] += int64(rows)
		for r := 0; r < rows; r++ {
			if r%q.link.TileRows == 0 {
				if err := q.goCtx.Err(); err != nil {
					return nil, err
				}
			}
			d := part.NodeFor(key.Get(r))
			for c := range rel.Cols {
				outs[d][c].data = append(outs[d][c].data, rel.Cols[c].Data.Get(r))
			}
			st.PerNodeRows[d]++
			if d != src {
				movedPer[src][d]++
			}
		}
	}
	res := make([]*ops.Relation, n)
	for d := 0; d < n; d++ {
		res[d] = buildersRelation(outs[d])
		st.RowsOut += int64(res[d].Rows())
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			moved := movedPer[s][d]
			if moved == 0 {
				continue
			}
			st.MovedRows += moved
			st.MovedBytes += moved * int64(rowBytes)
			st.Tiles += q.link.Tiles(int(moved))
			st.Seconds += q.link.TransferSeconds(int(moved), rowBytes)
		}
	}
	q.record(st)
	return res, nil
}

// broadcast produces one full union of all per-node inputs, delivered to
// every node: each source's rows cross the link to the N-1 other nodes.
// The returned relation is shared (immutable) across destinations.
func (q *query) broadcast(parts []*ops.Relation, label string) (*ops.Relation, error) {
	n := q.nodes()
	proto := firstNonNil(parts)
	bs := newBuilders(proto)
	st := ExchangeStats{
		Kind: Broadcast, Label: label,
		PerNodeRows:   make([]int64, n),
		PerSourceRows: make([]int64, n),
		MovedMatrix:   make([][]int64, n),
	}
	for s := range st.MovedMatrix {
		st.MovedMatrix[s] = make([]int64, n)
	}
	rowBytes := exchangeRowBytes(proto)
	for src, rel := range parts {
		if rel == nil {
			continue
		}
		rows := rel.Rows()
		st.RowsIn += int64(rows)
		st.PerSourceRows[src] += int64(rows)
		for d := 0; d < n; d++ {
			if d != src {
				st.MovedMatrix[src][d] += int64(rows)
			}
		}
		for r := 0; r < rows; r++ {
			if r%q.link.TileRows == 0 {
				if err := q.goCtx.Err(); err != nil {
					return nil, err
				}
			}
			for c := range rel.Cols {
				bs[c].data = append(bs[c].data, rel.Cols[c].Data.Get(r))
			}
		}
		if rows > 0 && n > 1 {
			moved := int64(rows) * int64(n-1)
			st.MovedRows += moved
			st.MovedBytes += moved * int64(rowBytes)
			st.Tiles += q.link.Tiles(rows) * int64(n-1)
			st.Seconds += q.link.TransferSeconds(rows, rowBytes) * float64(n-1)
		}
	}
	out := buildersRelation(bs)
	for d := 0; d < n; d++ {
		st.PerNodeRows[d] = int64(out.Rows())
	}
	st.RowsOut = int64(out.Rows()) * int64(n)
	q.record(st)
	return out, nil
}

// gather concentrates per-node relations at the coordinator, concatenated
// in node order. Every row crosses the link (the coordinator is the host,
// not a tray node).
func (q *query) gather(parts []*ops.Relation, label string) (*ops.Relation, error) {
	n := q.nodes()
	proto := firstNonNil(parts)
	bs := newBuilders(proto)
	st := ExchangeStats{
		Kind: Gather, Label: label,
		PerNodeRows:   make([]int64, n),
		PerSourceRows: make([]int64, n),
	}
	rowBytes := exchangeRowBytes(proto)
	for src, rel := range parts {
		if rel == nil {
			continue
		}
		rows := rel.Rows()
		st.RowsIn += int64(rows)
		st.PerNodeRows[src] = int64(rows)
		st.PerSourceRows[src] = int64(rows)
		for r := 0; r < rows; r++ {
			if r%q.link.TileRows == 0 {
				if err := q.goCtx.Err(); err != nil {
					return nil, err
				}
			}
			for c := range rel.Cols {
				bs[c].data = append(bs[c].data, rel.Cols[c].Data.Get(r))
			}
		}
		if rows > 0 {
			st.MovedRows += int64(rows)
			st.MovedBytes += int64(rows) * int64(rowBytes)
			st.Tiles += q.link.Tiles(rows)
			st.Seconds += q.link.TransferSeconds(rows, rowBytes)
		}
	}
	out := buildersRelation(bs)
	st.RowsOut = int64(out.Rows())
	q.record(st)
	return out, nil
}

// sliceModulo keeps the rows of rel whose index ≡ node (mod n) — the free
// "virtual repartition" of an already-replicated relation: no bytes cross
// the link because every node holds the full copy and keeps its share.
func sliceModulo(rel *ops.Relation, node, n int) *ops.Relation {
	bs := newBuilders(rel)
	for r := node; r < rel.Rows(); r += n {
		for c := range rel.Cols {
			bs[c].data = append(bs[c].data, rel.Cols[c].Data.Get(r))
		}
	}
	return buildersRelation(bs)
}

func firstNonNil(parts []*ops.Relation) *ops.Relation {
	for _, r := range parts {
		if r != nil {
			return r
		}
	}
	return &ops.Relation{}
}

// exchangeSpan converts an ExchangeStats into its obs-side trace record
// (obs stays cluster-agnostic; the slices are shared, not copied — stats
// are immutable once recorded).
func exchangeSpan(st ExchangeStats) *obs.ExchangeSpan {
	sp := &obs.ExchangeSpan{
		Kind: st.Kind.String(), Label: st.Label, Seconds: st.Seconds,
		RowsIn: st.RowsIn, RowsOut: st.RowsOut,
		MovedRows: st.MovedRows, MovedBytes: st.MovedBytes, Tiles: st.Tiles,
		PerSourceRows: st.PerSourceRows,
		MovedMatrix:   st.MovedMatrix,
	}
	if st.Kind != Gather {
		sp.PerDestRows = st.PerNodeRows
	}
	return sp
}

// record accumulates an executed exchange into the query's trace and the
// tray-wide net_* telemetry.
func (q *query) record(st ExchangeStats) {
	q.stats = append(q.stats, st)
	if q.traceOn {
		q.trace = append(q.trace, obs.DistStep{Label: st.Label, Exchange: exchangeSpan(st)})
	}
	q.step("exchange %s %s moved_rows=%d bytes=%d", st.Kind, st.Label, st.MovedRows, st.MovedBytes)
	q.netSeconds += st.Seconds
	q.netBytes += st.MovedBytes
	q.netRows += st.MovedRows
	q.netTiles += st.Tiles
	m := q.reg
	m.Counter("rapid_net_exchanges_total").Inc()
	switch st.Kind {
	case Shuffle:
		m.Counter("rapid_net_shuffles_total").Inc()
	case Broadcast:
		m.Counter("rapid_net_broadcasts_total").Inc()
	case Gather:
		m.Counter("rapid_net_gathers_total").Inc()
	}
	m.Counter("rapid_net_rows_total").Add(st.MovedRows)
	m.Counter("rapid_net_bytes_total").Add(st.MovedBytes)
	m.Counter("rapid_net_tiles_total").Add(st.Tiles)
	m.Counter("rapid_net_microseconds_total").Add(int64(st.Seconds * 1e6))
	m.Counter("rapid_net_energy_nanojoules_total").Add(q.link.EnergyFJ(st.MovedBytes) / 1e6)
}
