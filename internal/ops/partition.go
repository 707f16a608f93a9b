package ops

import (
	"fmt"
	mathbits "math/bits"

	"rapid/internal/coltypes"
	"rapid/internal/dms"
	"rapid/internal/mem"
	"rapid/internal/primitives"
	"rapid/internal/qef"
)

// PartScheme is a partitioning scheme (paper §5.3): the fan-out of each
// round, all powers of two. Round 0 runs on the DMS (hardware, <= 32-way);
// later rounds are the vectorized software partitioning on the dpCores.
type PartScheme struct {
	Rounds []int
}

// Fanout returns the total fan-out (product of rounds).
func (s PartScheme) Fanout() int {
	f := 1
	for _, r := range s.Rounds {
		f *= r
	}
	return f
}

// Validate checks hardware limits and power-of-two fan-outs.
func (s PartScheme) Validate() error {
	for i, r := range s.Rounds {
		if r < 1 || r&(r-1) != 0 {
			return fmt.Errorf("ops: round %d fan-out %d must be a power of two", i, r)
		}
		if i == 0 && r > dms.MaxFanout {
			return fmt.Errorf("ops: hardware round fan-out %d exceeds %d", r, dms.MaxFanout)
		}
	}
	return nil
}

func (s PartScheme) String() string {
	if len(s.Rounds) == 0 {
		return "none"
	}
	out := ""
	for i, r := range s.Rounds {
		if i > 0 {
			out += "x"
		}
		out += fmt.Sprintf("%d", r)
	}
	return out
}

// PartitionedRel is a hash-partitioned relation: per-partition column sets
// plus the per-row CRC32 hash vectors that travel with the data so that
// subsequent rounds and the join kernels never re-hash.
type PartitionedRel struct {
	Cols   [][]coltypes.Data
	Hashes [][]uint32
	// Bits is the number of low hash bits consumed by the partitioning.
	Bits uint

	// leased are the word buffers Cols and Hashes are carved from, on lease
	// from slab until Release.
	slab   *mem.Slab
	leased [][]int64
}

// Release returns the partitions' buffers to the slab and empties p. The
// operator that partitioned calls it once the batch of work units reading p
// has returned (RunParallel waits for every unit, on error and cancellation
// too), or inside the one unit that made p; nothing taken from p — a column,
// a hash vector, a slice of either — may be used afterwards. Without it the
// buffers are merely collected.
func (p *PartitionedRel) Release() {
	for _, words := range p.leased {
		p.slab.Return(words)
	}
	*p = PartitionedRel{}
}

// NumPartitions returns the partition count.
func (p *PartitionedRel) NumPartitions() int { return len(p.Cols) }

// Rows returns the row count of partition i.
func (p *PartitionedRel) Rows(i int) int {
	if len(p.Cols[i]) == 0 {
		return len(p.Hashes[i])
	}
	return p.Cols[i][0].Len()
}

// partChunkRows is the row granularity at which ModeX86 spreads the
// orchestrator-side partitioning passes (hash, histogram, scatter) over the
// cores: large enough to amortise a work-unit dispatch, small enough that a
// TPC-H-sized input yields several chunks per core.
const partChunkRows = 16 << 10

// checkCols rejects a column that was never given storage (the zero Data)
// as a query error: a fuzzed plan must not reach a Scatter panic.
func checkCols(chunks [][]coltypes.Data) error {
	for _, ch := range chunks {
		for i, c := range ch {
			if !c.Width().Valid() {
				return fmt.Errorf("ops: column %d: unsupported data width %d", i, c.Width())
			}
		}
	}
	return nil
}

// numRows returns the rows of a chunk list; chunks without columns have none.
func numRows(chunks [][]coltypes.Data) (n int) {
	for _, ch := range chunks {
		if len(ch) > 0 {
			n += ch[0].Len()
		}
	}
	return n
}

// eachSegment calls fn for every chunk overlapping rows [lo, hi) of the list,
// with the chunk's rows [a, b) in the range, the first of them row at.
func eachSegment(chunks [][]coltypes.Data, lo, hi int, fn func(chunk []coltypes.Data, a, b, at int)) {
	start := 0
	for _, ch := range chunks {
		if a, b := max(lo-start, 0), min(hi-start, ch[0].Len()); a < b {
			fn(ch, a, b, start+a)
		}
		if start += ch[0].Len(); start >= hi {
			return
		}
	}
}

// pieceRows returns the rows per piece forChunks cuts n rows into for a pass
// keeping fanout counters per piece: with a ModeX86 context, partChunkRows —
// fewer, larger pieces where a wide split would otherwise keep more than 64 Ki
// counters (256 KiB), but never fewer than one per worker; with a nil context
// (the caller is already inside a work unit) or in ModeDPU — where these
// passes model DMS hardware and must bill nothing new — all n.
func pieceRows(ctx *qef.Context, n, fanout int) int {
	if ctx == nil || ctx.Mode == qef.ModeDPU || n <= partChunkRows {
		return max(n, 1)
	}
	pieces := min((n+partChunkRows-1)/partChunkRows, max(1<<16/fanout, ctx.Workers()))
	return (n + pieces - 1) / pieces
}

// forChunks runs fn over [0, n) in pieces of rows rows (see pieceRows): a
// single piece inline, several as work units on all cores. The pieces cut a
// relation's rows, not its chunks (eachSegment walks those): many small
// chunks cost no more units than one, and one large chunk is still spread
// over the cores.
func forChunks(ctx *qef.Context, n, rows int, fn func(chunk, lo, hi int)) error {
	if n <= rows {
		if n > 0 {
			fn(0, 0, n)
		}
		return nil
	}
	units := make([]qef.WorkUnit, (n+rows-1)/rows)
	for chunk := range units {
		lo := chunk * rows
		units[chunk] = func(*qef.TaskCtx) error {
			fn(chunk, lo, min(lo+rows, n))
			return nil
		}
	}
	return ctx.RunParallel(units)
}

// PartitionByHash partitions the rows of a relation's chunks by the CRC32
// hash of keyCols according to the scheme. Round 0 uses the DMS hash engine
// (no dpCore cycles); later rounds run the software partitioning operator on
// all cores with DMEM-resident per-partition buffers flushed to DRAM as they
// fill (§5.3). The data moves in one split for all rounds; each software
// round's DMEM admission and billing replay round by round.
func PartitionByHash(ctx *qef.Context, chunks [][]coltypes.Data, keyCols []int, scheme PartScheme, tileRows int) (*PartitionedRel, error) {
	if err := scheme.Validate(); err != nil {
		return nil, err
	}
	if err := checkCols(chunks); err != nil {
		return nil, err
	}
	var cols []coltypes.Data // the first chunk: the widths
	if len(chunks) > 0 {
		cols = chunks[0]
	}
	n := numRows(chunks)
	// The hash vector: CRC32 over the key columns, the values the DMS hash
	// engine delivers. Leased un-zeroed: the first key's pass seeds every
	// accumulator.
	var hv []uint32
	var hvWords []int64
	if len(cols) > 0 {
		hv, hvWords = ctx.Slab.U32(n)
		if len(keyCols) == 0 {
			clear(hv) // no key, no pass: one hash for every row, as before
		}
		err := forChunks(ctx, n, pieceRows(ctx, n, 1), func(_, lo, hi int) {
			eachSegment(chunks, lo, hi, func(ch []coltypes.Data, a, b, at int) {
				h := hv[at : at+b-a]
				for i, k := range keyCols {
					primitives.HashColumn(nil, ch[k].Slice(a, b), h, i == 0)
				}
				primitives.HashFinalize(nil, h)
			})
		})
		if err != nil {
			return nil, err
		}
	}
	if ctx.Mode == qef.ModeDPU {
		// The hash pass runs on the DMS from the orchestrator, outside any
		// work unit; attribute its bytes/time to the active operator span so
		// the profile reconciles with the engine's transfer totals.
		ctx.AccountSpanTransfer(ctx.DMS.HashTiming(n, cols, keyCols))
	}
	if len(scheme.Rounds) == 0 && len(chunks) <= 1 {
		return &PartitionedRel{Cols: [][]coltypes.Data{cols}, Hashes: [][]uint32{hv}, slab: ctx.Slab, leased: [][]int64{hvWords}}, nil
	}
	defer ctx.Slab.Return(hvWords) // the hashes travel on in out.Hashes
	rounds := scheme.Rounds
	if len(rounds) == 0 {
		rounds = []int{1} // several chunks, one partition: the split concatenates
	}
	// Round 0 is billed inside HashTiming's partition-time model.
	out, err := splitPartition(ctx, ctx.Slab, chunks, hv, rounds, 0)
	if err != nil {
		return nil, err
	}
	for r, shift := 1, roundBits(rounds[0]); r < len(rounds); r++ {
		if err := swPartitionRound(ctx, out, hv, cols, rounds[:r], rounds[r], shift, tileRows); err != nil {
			out.Release()
			return nil, err
		}
		shift += roundBits(rounds[r])
	}
	return out, nil
}

// roundBits is the number of hash bits a round of the given fan-out consumes.
func roundBits(fanout int) uint { return uint(mathbits.Len(uint(fanout - 1))) }

// partitionsOf is the partition count of a list of rounds.
func partitionsOf(rounds []int) int { return PartScheme{Rounds: rounds}.Fanout() }

// splitPartition routes rows by hash bits from shift on into the partitions
// of the given rounds: round r takes the next log2 rounds[r] bits, and child c
// of its partition p is slot p·rounds[r]+c — the hardware round with the
// software rounds after it, a skew re-split, a group re-split. Each round is
// a stable split, so one stable split keyed by the final slot lays out what
// the rounds would one after the other: histogram, prefix sum, one position
// vector, one scatter per column into a buffer the partitions are carved
// from; every row moves once, in input order within its partition. chunks
// may be nil (a split of the hashes only). A non-nil ModeX86 ctx runs
// histogram and scatter chunk-parallel (see pieceRows), with per-piece
// cursors from one serial prefix sum. The output is on lease from slab until
// the caller Releases it.
func splitPartition(ctx *qef.Context, slab *mem.Slab, chunks [][]coltypes.Data, hv []uint32, rounds []int, shift uint) (*PartitionedRel, error) {
	if err := checkCols(chunks); err != nil {
		return nil, err
	}
	fanout := partitionsOf(rounds)
	bits := roundBits(fanout)
	// slotOf[v] is the slot of hash bits [shift, shift+bits) = v: each
	// round's digit, earlier rounds' the more significant.
	slotOf := make([]uint32, fanout)
	for v := range slotOf {
		from, to := uint(0), bits
		for _, f := range rounds {
			to -= roundBits(f)
			slotOf[v] |= uint32(v) >> from & uint32(f-1) << to
			from += roundBits(f)
		}
	}
	mask := uint32(fanout - 1)
	n := len(hv)
	var cols []coltypes.Data
	if len(chunks) > 0 {
		cols = chunks[0]
	}
	// cursor[chunk*fanout+p]: the piece's row count for partition p, after
	// the prefix sum the position of its next row. pos: each row's slot, then
	// its position; leased un-zeroed, the histogram writes it in full.
	rows := pieceRows(ctx, n, fanout)
	cursor := make([]uint32, (n+rows-1)/rows*fanout)
	pos, posWords := slab.U32(n)
	defer slab.Return(posWords)
	if err := forChunks(ctx, n, rows, func(chunk, lo, hi int) {
		cnt, cpos := cursor[chunk*fanout:(chunk+1)*fanout], pos[lo:hi]
		for i, h := range hv[lo:hi] {
			slot := slotOf[h>>shift&mask]
			cpos[i] = slot
			cnt[slot]++
		}
	}); err != nil {
		return nil, err
	}
	bounds := make([]uint32, fanout+1)
	var sum uint32
	for p := 0; p < fanout; p++ {
		bounds[p] = sum
		for at := p; at < len(cursor); at += fanout {
			sum, cursor[at] = sum+cursor[at], sum
		}
	}
	bounds[fanout] = sum

	// Leased un-zeroed: the cursors are a permutation of [0, n), so the
	// scatter below writes every element of outHv and of each output column.
	out := &PartitionedRel{
		Cols:   make([][]coltypes.Data, fanout),
		Hashes: make([][]uint32, fanout),
		Bits:   shift + bits,
		slab:   slab,
		leased: make([][]int64, 1+len(cols)),
	}
	var outHv []uint32
	outHv, out.leased[0] = slab.U32(n)
	outCols := make([]coltypes.Data, len(cols))
	for c, col := range cols {
		outCols[c], out.leased[1+c] = slab.Data(col.Width(), n)
	}
	err := forChunks(ctx, n, rows, func(chunk, lo, hi int) {
		next, cpos := cursor[chunk*fanout:(chunk+1)*fanout], pos[lo:hi]
		for i, h := range hv[lo:hi] {
			p := cpos[i]
			cpos[i] = next[p]
			outHv[next[p]] = h
			next[p]++
		}
		eachSegment(chunks, lo, hi, func(ch []coltypes.Data, a, b, at int) {
			for c, col := range ch {
				coltypes.Scatter(outCols[c], col.Slice(a, b), pos[at:at+b-a])
			}
		})
	})
	if err != nil {
		out.Release()
		return nil, err
	}

	carved := make([]coltypes.Data, fanout*len(cols))
	for p := 0; p < fanout; p++ {
		lo, hi := int(bounds[p]), int(bounds[p+1])
		out.Hashes[p] = outHv[lo:hi:hi]
		out.Cols[p] = carved[p*len(cols) : (p+1)*len(cols) : (p+1)*len(cols)]
		for c := range cols {
			out.Cols[p][c] = outCols[c].Slice(lo, hi)
		}
	}
	return out, nil
}

// SWPartitionRound replays one software partitioning round over the
// partitions of in — for the Fig 10 micro-benchmark, which sweeps fan-out and
// tile size over the software operator in isolation.
func SWPartitionRound(ctx *qef.Context, in *PartitionedRel, fanout int, shift uint, tileRows int) error {
	return swPartitionRound(ctx, in, nil, in.Cols[0], nil, fanout, shift, tileRows)
}

// swPartitionRound replays the software round after rounds prior — fan-out
// fanout from hash bit shift — over out, the split by all rounds: one work
// unit per input partition, the rows of one prefix slot of prior, or with no
// prior rounds each partition of out. On a dpCore a partition streams its
// hashes in the round's input order, a hash-only split of hv by prior.
func swPartitionRound(ctx *qef.Context, out *PartitionedRel, hv []uint32, cols []coltypes.Data, prior []int, fanout int, shift uint, tileRows int) error {
	nIn, hashes := out.NumPartitions(), out.Hashes
	if len(prior) > 0 {
		nIn, hashes = partitionsOf(prior), make([][]uint32, partitionsOf(prior))
		if ctx.Mode == qef.ModeDPU {
			pre, err := splitPartition(ctx, ctx.Slab, nil, hv, prior, 0)
			if err != nil {
				return err
			}
			defer pre.Release()
			hashes = pre.Hashes
		}
	}
	rest := out.NumPartitions() / nIn
	units := make([]qef.WorkUnit, nIn)
	for pi := range units {
		rows := 0
		for slot := pi * rest; slot < (pi+1)*rest; slot++ {
			rows += out.Rows(slot)
		}
		units[pi] = func(tc *qef.TaskCtx) error {
			return swPartitionOne(tc, cols, rows, hashes[pi], fanout, shift, tileRows)
		}
	}
	return ctx.RunParallel(units)
}

// swPartitionOne is the software partitioning operator over one input
// partition of rows rows: the paper's operator streams tiles, computes the
// partition map (Listing 2) and gathers rows into DMEM buffers (Listing 3)
// flushed to DRAM as they fill. The rows have moved (splitPartition); its
// DMEM admission and, on a dpCore, the tile loop's billing over hv (the
// hashes in input order) replay exactly as the operator incurs them.
func swPartitionOne(tc *qef.TaskCtx, cols []coltypes.Data, rows int, hv []uint32, fanout int, shift uint, tileRows int) error {
	if rows == 0 {
		return nil
	}
	rowBytes := 4 // hash
	for _, c := range cols {
		rowBytes += c.Width().Bytes()
	}
	// DMEM budget (§5.3: "we calculate the vector and buffer sizes such
	// that data stays in DMEM"): the local output buffers get half the
	// scratchpad; input tile double-buffers and the partition map share
	// the rest, shrinking the tile when needed.
	tc.DMEM.Mark()
	defer tc.DMEM.Release()
	// Output buffers get half the scratchpad, but never so much that the
	// minimum 64-row input tile cannot fit (tiny-DMEM resilience).
	minInput := 2*qef.MinTileRows*rowBytes + qef.MinTileRows*4 + (fanout+1)*4
	outBudget := tc.DMEM.Free() / 2
	if rest := tc.DMEM.Free() - outBudget; rest < minInput {
		outBudget = tc.DMEM.Free() - minInput
	}
	if outBudget < 0 {
		outBudget = 0
	}
	bufRows := outBudget / (fanout * rowBytes)
	if bufRows < 1 {
		return fmt.Errorf("ops: fan-out %d leaves no DMEM for partition buffers", fanout)
	}
	if bufRows > 4096 {
		bufRows = 4096
	}
	if err := tc.DMEM.Alloc(fanout * bufRows * rowBytes); err != nil {
		return err
	}
	for tileRows > qef.MinTileRows && 2*tileRows*rowBytes+tileRows*4+(fanout+1)*4 > tc.DMEM.Free() {
		tileRows /= 2
	}
	inBytes := 2 * tileRows * rowBytes
	mapBytes := tileRows*4 + (fanout+1)*4
	if err := tc.DMEM.Alloc(inBytes + mapBytes); err != nil {
		return err
	}
	if tc.Core == nil {
		return nil
	}

	// Billing replay of the streaming operator: per tile the input transfer,
	// the partition map and the per-column gather; per modeled DMEM buffer
	// one contiguous DMS flush each time it fills, and once at the end.
	colBytes := rowBytes - 4
	bufN, counts := make([]int, fanout), make([]int, fanout)
	flush := func(p int) {
		tc.AddTransfer(tc.DMS.StreamWrite(bufN[p] * colBytes))
		bufN[p] = 0
	}
	for lo := 0; lo < rows; lo += tileRows {
		hi := min(lo+tileRows, rows)
		tc.AddTransfer(tc.DMS.Read(cols, lo, hi))
		primitives.ComputePartitionMap(tc.Core, hv[lo:hi], shift, counts)
		primitives.ChargeSwPartitionGather(tc.Core, (hi-lo)*len(cols))
		for p := 0; p < fanout; p++ {
			for rows := counts[p]; rows > 0; {
				take := min(rows, bufRows-bufN[p])
				bufN[p] += take
				rows -= take
				if bufN[p] == bufRows {
					flush(p)
				}
			}
		}
	}
	for p := 0; p < fanout; p++ {
		if bufN[p] > 0 {
			flush(p)
		}
	}
	return nil
}
