package cluster

import (
	"rapid/internal/coltypes"
	"rapid/internal/obs"
	"rapid/internal/ops"
	"rapid/internal/primitives"
	"rapid/internal/storage"
)

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
	data := make([]coltypes.Data, len(bufs))
	for c := range data {
		data[c] = coltypes.Of(bufs[c][lo:hi:hi])
	}
	return ops.MustRelation(proto.Cols, data)
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

// chunkTiles calls fn for every tile of rel chunk by chunk — the wire copy
// reads a node relation where its rows lie, with no flatten before it: cols
// is the tile's columns (reused across calls), at the index in rel of its
// first row.
func (q *query) chunkTiles(rel *ops.Relation, fn func(cols []coltypes.Data, at int)) error {
	if rel.NumCols() == 0 {
		return nil
	}
	tile := make([]coltypes.Data, rel.NumCols())
	at := 0
	for _, ch := range rel.Chunks {
		err := q.tiles(ch[0].Len(), func(lo, hi int) {
			for c, d := range ch {
				tile[c] = d.Slice(lo, hi)
			}
			fn(tile, at+lo)
		})
		if err != nil {
			return err
		}
		at += ch[0].Len()
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
		err := q.chunkTiles(rel, func(cols []coltypes.Data, at int) {
			for i, k := range widened(cols[keyCol], scratch) {
				d := part.NodeFor(k)
				dest[at+i] = uint32(d)
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

	// Lay the streams out destination by destination, source by source;
	// rt.streams turns into each stream's write cursor.
	streams := newMatrix(n, n)
	bounds := make([]int, n+1)
	total := 0
	for d := 0; d < n; d++ {
		for s := 0; s < n; s++ {
			rows := rt.streams[s][d]
			streams[s][d] = int64(rows)
			rt.streams[s][d] = total
			total += rows
		}
		bounds[d+1] = total
	}
	// Link time: every cross-node stream, source-major.
	rowBytes := exchangeRowBytes(proto)
	var seconds float64
	for s, row := range streams {
		for d, rows := range row {
			if d != s {
				seconds += q.link.TransferSeconds(int(rows), rowBytes)
			}
		}
	}

	bufs := exchangeColumns(proto, total)
	scratch := make([]int64, q.link.TileRows)
	for src, rel := range parts {
		if rel == nil {
			continue
		}
		dest, cursor := rt.dest[src], rt.streams[src]
		err := q.chunkTiles(rel, func(cols []coltypes.Data, lo int) {
			at := dest[lo : lo+cols[0].Len()]
			for i, d := range at {
				at[i] = uint32(cursor[d])
				cursor[d]++
			}
			for c, col := range cols {
				out := bufs[c]
				for i, v := range widened(col, scratch) {
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
	q.record(&obs.ExchangeSpan{Kind: "shuffle", Label: label, Streams: streams, Seconds: seconds}, parts)
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
		err := q.chunkTiles(rel, func(cols []coltypes.Data, lo int) {
			for c, col := range cols {
				primitives.WidenToI64(nil, col, bufs[c][off+lo:off+lo+col.Len()])
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
	// Every source streams its rows to every node, itself included; the
	// link carries each source's N-1 copies.
	rowBytes := exchangeRowBytes(out)
	streams := newMatrix(n, n)
	var seconds float64
	for src, rel := range parts {
		rows := rowsOf(rel)
		for d := range streams[src] {
			streams[src][d] = int64(rows)
		}
		seconds += q.link.TransferSeconds(rows, rowBytes) * float64(n-1)
	}
	q.record(&obs.ExchangeSpan{Kind: "broadcast", Label: label, Streams: streams, Seconds: seconds}, parts)
	return out, nil
}

// gather concentrates per-node relations at the coordinator, concatenated
// in node order. Every row crosses the link (the coordinator is the host,
// not a tray node): each source's one stream goes to destination N.
func (q *query) gather(parts []*ops.Relation, label string) (*ops.Relation, error) {
	n := q.nodes()
	out, err := q.concat(parts)
	if err != nil {
		return nil, err
	}
	rowBytes := exchangeRowBytes(out)
	streams := newMatrix(n, n+1)
	var seconds float64
	for src, rel := range parts {
		rows := rowsOf(rel)
		streams[src][n] = int64(rows)
		seconds += q.link.TransferSeconds(rows, rowBytes)
	}
	q.record(&obs.ExchangeSpan{Kind: "gather", Label: label, Streams: streams, Seconds: seconds}, parts)
	return out, nil
}

// sliceModulo keeps the rows of rel whose index ≡ node (mod n) — the free
// "virtual repartition" of an already-replicated relation: no bytes cross
// the link because every node holds the full copy and keeps its share.
func sliceModulo(rel *ops.Relation, node, n int) *ops.Relation {
	rel = rel.Flat()
	rows := 0
	if rel.Rows() > node {
		rows = (rel.Rows() - node + n - 1) / n
	}
	bufs := exchangeColumns(rel, rows)
	scratch := make([]int64, rel.Rows())
	for c := range rel.Cols {
		src := widened(rel.Col(c), scratch)
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

// newMatrix allocates a sources × destinations stream matrix.
func newMatrix(sources, dests int) [][]int64 {
	m := make([][]int64, sources)
	for s := range m {
		m[s] = make([]int64, dests)
	}
	return m
}

// rowsOf is rel's row count; a nil input is an empty shard.
func rowsOf(rel *ops.Relation) int {
	if rel == nil {
		return 0
	}
	return rel.Rows()
}

// derive fills every count of an exchange record from its stream matrix: in
// is the rows entering from each source and rowBytes the wire width. Only
// cross-node streams (destination != source) move rows, bytes and tiles.
func (m LinkModel) derive(ex *obs.ExchangeSpan, in []int64, rowBytes int) {
	for _, rows := range in {
		ex.RowsIn += rows
	}
	ex.PerSourceRows = make([]int64, len(ex.Streams))
	ex.PerDestRows = make([]int64, len(ex.Streams[0]))
	for s, row := range ex.Streams {
		for d, rows := range row {
			ex.PerSourceRows[s] += rows
			ex.PerDestRows[d] += rows
			ex.RowsOut += rows
			if d != s {
				ex.MovedRows += rows
				ex.Tiles += m.Tiles(int(rows))
			}
		}
	}
	ex.MovedBytes = ex.MovedRows * int64(rowBytes)
}

// record derives an executed exchange's counts from its inputs and stream
// matrix, and adds it to the query's exchanges, its trace and the tray-wide
// net_* telemetry.
func (q *query) record(ex *obs.ExchangeSpan, parts []*ops.Relation) {
	in := make([]int64, len(parts))
	for s, rel := range parts {
		in[s] = int64(rowsOf(rel))
	}
	q.link.derive(ex, in, exchangeRowBytes(firstNonNil(parts)))
	q.exchanges = append(q.exchanges, ex)
	if q.traceOn {
		q.trace = append(q.trace, obs.DistStep{Label: ex.Label, Exchange: ex})
	}
	q.step("exchange %s %s moved_rows=%d bytes=%d", ex.Kind, ex.Label, ex.MovedRows, ex.MovedBytes)
	m := q.reg
	m.Counter("rapid_net_exchanges_total").Inc()
	m.Counter("rapid_net_" + ex.Kind + "s_total").Inc() // shuffles, broadcasts, gathers
	m.Counter("rapid_net_rows_total").Add(ex.MovedRows)
	m.Counter("rapid_net_bytes_total").Add(ex.MovedBytes)
	m.Counter("rapid_net_tiles_total").Add(ex.Tiles)
	m.Counter("rapid_net_microseconds_total").Add(int64(ex.Seconds * 1e6))
	m.Counter("rapid_net_energy_nanojoules_total").Add(q.link.EnergyFJ(ex.MovedBytes) / 1e6)
}
