package cluster

import (
	"fmt"

	"rapid/internal/coltypes"
	"rapid/internal/obs"
	"rapid/internal/ops"
	"rapid/internal/primitives"
	"rapid/internal/storage"
)

// ExchangeKind classifies an exchange operator.
type ExchangeKind int

const (
	// Shuffle re-partitions per-node relations by a key column: every row
	// moves to the node its key hashes (or range-routes) to (route, deliver).
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

// exchangeColumns allocates an exchange output of exactly rows rows in the
// 8-byte wire format: one vector per column of proto.
func exchangeColumns(proto *ops.Relation, rows int) [][]int64 {
	bufs := make([][]int64, proto.NumCols())
	for c := range bufs {
		bufs[c] = make([]int64, rows)
	}
	return bufs
}

// columnsRelation wraps rows [lo, hi) of exchange output columns as a
// relation with proto's column metadata.
func columnsRelation(proto *ops.Relation, bufs [][]int64, lo, hi int) *ops.Relation {
	cols := make([]ops.Col, len(bufs))
	for c, pc := range proto.Cols {
		cols[c] = ops.Col{Name: pc.Name, Type: pc.Type, Dict: pc.Dict, Data: coltypes.Of(bufs[c][lo:hi:hi])}
	}
	return ops.MustRelation(cols)
}

// widened returns d's values as 8-byte integers: d's own storage when it is
// 8 bytes wide already, else a copy in scratch (at least d.Len() long).
func widened(d coltypes.Data, scratch []int64) []int64 {
	if d.Width() == coltypes.W8 {
		return d.I64()
	}
	return primitives.WidenToI64(nil, d, scratch)
}

// tiles calls fn for every [lo, hi) tile of LinkModel.TileRows rows — the
// granularity at which exchanges observe cancellation.
func (q *query) tiles(rows int, fn func(lo, hi int)) error {
	for lo := 0; lo < rows; lo += q.link.TileRows {
		if err := q.goCtx.Err(); err != nil {
			return err
		}
		fn(lo, min(lo+q.link.TileRows, rows))
	}
	return nil
}

// routes is the first pass of a shuffle: the destination of every row, and
// how many rows each source→destination stream carries.
type routes struct {
	dest     [][]uint32 // dest[src][r]: row r of node src's input goes to this node
	streams  [][]int    // streams[src][dst]: rows, co-located deliveries included
	crossing int64      // rows whose destination is not their source
}

// route computes where part.NodeFor(r[keyCol]) sends every row of the
// per-node relations (parts[i] is node i's input, nil treated empty), in one
// pass over the key column.
func (q *query) route(parts []*ops.Relation, keyCol int, part *storage.ShardMap) (*routes, error) {
	n := q.nodes()
	rt := &routes{dest: make([][]uint32, n), streams: make([][]int, n)}
	scratch := make([]int64, q.link.TileRows)
	for src := range rt.streams {
		rt.streams[src] = make([]int, n)
	}
	for src, rel := range parts {
		if rel == nil {
			continue
		}
		dest, count := make([]uint32, rel.Rows()), rt.streams[src]
		rt.dest[src] = dest
		key := rel.Cols[keyCol].Data
		err := q.tiles(rel.Rows(), func(lo, hi int) {
			for i, k := range widened(key.Slice(lo, hi), scratch) {
				d := part.NodeFor(k)
				dest[lo+i] = uint32(d)
				count[d]++
			}
		})
		if err != nil {
			return nil, err
		}
		rt.crossing += int64(rel.Rows() - count[src])
	}
	return rt, nil
}

// deliver is the second pass of a shuffle: it re-partitions parts along rt
// (which it consumes). The result is indexed by destination node, each
// destination's rows in source-node then source-row order. The stream counts
// size every destination exactly and place each stream in it, so the rows are
// scattered column by column with no growth and no per-cell dispatch.
func (q *query) deliver(parts []*ops.Relation, rt *routes, label string) ([]*ops.Relation, error) {
	n := q.nodes()
	proto := firstNonNil(parts)
	st := ExchangeStats{
		Kind: Shuffle, Label: label,
		PerNodeRows:   make([]int64, n),
		PerSourceRows: make([]int64, n),
		MovedMatrix:   make([][]int64, n),
	}
	for src, rel := range parts {
		st.MovedMatrix[src] = make([]int64, n)
		if rel != nil {
			st.RowsIn += int64(rel.Rows())
			st.PerSourceRows[src] = int64(rel.Rows())
		}
	}

	// Lay the streams out destination by destination, source by source;
	// rt.streams turns into each stream's write cursor.
	bounds := make([]int, n+1)
	total := 0
	for d := 0; d < n; d++ {
		for s := 0; s < n; s++ {
			rows := rt.streams[s][d]
			rt.streams[s][d] = total
			total += rows
			if s != d {
				st.MovedMatrix[s][d] = int64(rows)
			}
		}
		bounds[d+1] = total
		st.PerNodeRows[d] = int64(total - bounds[d])
	}
	st.RowsOut = int64(total)
	rowBytes := exchangeRowBytes(proto)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			moved := st.MovedMatrix[s][d]
			if moved == 0 {
				continue
			}
			st.MovedRows += moved
			st.MovedBytes += moved * int64(rowBytes)
			st.Tiles += q.link.Tiles(int(moved))
			st.Seconds += q.link.TransferSeconds(int(moved), rowBytes)
		}
	}

	bufs := exchangeColumns(proto, total)
	scratch := make([]int64, q.link.TileRows)
	for src, rel := range parts {
		if rel == nil {
			continue
		}
		dest, cursor := rt.dest[src], rt.streams[src]
		err := q.tiles(rel.Rows(), func(lo, hi int) {
			at := dest[lo:hi]
			for i, d := range at {
				at[i] = uint32(cursor[d])
				cursor[d]++
			}
			for c, col := range rel.Cols {
				out := bufs[c]
				for i, v := range widened(col.Data.Slice(lo, hi), scratch) {
					out[at[i]] = v
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	res := make([]*ops.Relation, n)
	for d := range res {
		res[d] = columnsRelation(proto, bufs, bounds[d], bounds[d+1])
	}
	q.record(st)
	return res, nil
}

// concat is the union of the per-node relations in node order, in the
// 8-byte wire format: what a gather delivers to the coordinator and a
// broadcast to every node.
func (q *query) concat(parts []*ops.Relation) (*ops.Relation, error) {
	proto := firstNonNil(parts)
	total := 0
	for _, rel := range parts {
		if rel != nil {
			total += rel.Rows()
		}
	}
	bufs := exchangeColumns(proto, total)
	off := 0
	for _, rel := range parts {
		if rel == nil {
			continue
		}
		err := q.tiles(rel.Rows(), func(lo, hi int) {
			for c, col := range rel.Cols {
				primitives.WidenToI64(nil, col.Data.Slice(lo, hi), bufs[c][off+lo:off+hi])
			}
		})
		if err != nil {
			return nil, err
		}
		off += rel.Rows()
	}
	return columnsRelation(proto, bufs, 0, total), nil
}

// broadcast produces one full union of all per-node inputs, delivered to
// every node: each source's rows cross the link to the N-1 other nodes.
// The returned relation is shared (immutable) across destinations.
func (q *query) broadcast(parts []*ops.Relation, label string) (*ops.Relation, error) {
	n := q.nodes()
	out, err := q.concat(parts)
	if err != nil {
		return nil, err
	}
	st := ExchangeStats{
		Kind: Broadcast, Label: label,
		PerNodeRows:   make([]int64, n),
		PerSourceRows: make([]int64, n),
		MovedMatrix:   make([][]int64, n),
	}
	for s := range st.MovedMatrix {
		st.MovedMatrix[s] = make([]int64, n)
	}
	rowBytes := exchangeRowBytes(out)
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
		if rows > 0 && n > 1 {
			moved := int64(rows) * int64(n-1)
			st.MovedRows += moved
			st.MovedBytes += moved * int64(rowBytes)
			st.Tiles += q.link.Tiles(rows) * int64(n-1)
			st.Seconds += q.link.TransferSeconds(rows, rowBytes) * float64(n-1)
		}
	}
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
	out, err := q.concat(parts)
	if err != nil {
		return nil, err
	}
	st := ExchangeStats{
		Kind: Gather, Label: label,
		PerNodeRows:   make([]int64, n),
		PerSourceRows: make([]int64, n),
	}
	rowBytes := exchangeRowBytes(out)
	for src, rel := range parts {
		if rel == nil {
			continue
		}
		rows := rel.Rows()
		st.RowsIn += int64(rows)
		st.PerNodeRows[src] = int64(rows)
		st.PerSourceRows[src] = int64(rows)
		if rows > 0 {
			st.MovedRows += int64(rows)
			st.MovedBytes += int64(rows) * int64(rowBytes)
			st.Tiles += q.link.Tiles(rows)
			st.Seconds += q.link.TransferSeconds(rows, rowBytes)
		}
	}
	st.RowsOut = int64(out.Rows())
	q.record(st)
	return out, nil
}

// sliceModulo keeps the rows of rel whose index ≡ node (mod n) — the free
// "virtual repartition" of an already-replicated relation: no bytes cross
// the link because every node holds the full copy and keeps its share.
func sliceModulo(rel *ops.Relation, node, n int) *ops.Relation {
	rows := 0
	if rel.Rows() > node {
		rows = (rel.Rows() - node + n - 1) / n
	}
	bufs := exchangeColumns(rel, rows)
	scratch := make([]int64, rel.Rows())
	for c, col := range rel.Cols {
		src := widened(col.Data, scratch)
		for i := range bufs[c] {
			bufs[c][i] = src[node+i*n]
		}
	}
	return columnsRelation(rel, bufs, 0, rows)
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
		RowsOut:   st.RowsOut,
		MovedRows: st.MovedRows, MovedBytes: st.MovedBytes,
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
