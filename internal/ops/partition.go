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
func checkCols(cols []coltypes.Data) error {
	for i, c := range cols {
		if !c.Width().Valid() {
			return fmt.Errorf("ops: column %d: unsupported data width %d", i, c.Width())
		}
	}
	return nil
}

// numChunks returns how many pieces forChunks cuts n rows into: with a
// ModeX86 context, partChunkRows pieces; with a nil context (the caller is
// already inside a work unit) or in ModeDPU — where these passes model DMS
// hardware and must bill nothing new — one.
func numChunks(ctx *qef.Context, n int) int {
	if ctx == nil || ctx.Mode == qef.ModeDPU || n <= partChunkRows {
		return 1
	}
	return (n + partChunkRows - 1) / partChunkRows
}

// forChunks runs fn over [0, n) in numChunks pieces: a single piece inline,
// several as work units on all cores.
func forChunks(ctx *qef.Context, n int, fn func(chunk, lo, hi int)) error {
	chunks := numChunks(ctx, n)
	if chunks == 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return nil
	}
	units := make([]qef.WorkUnit, chunks)
	for chunk := range units {
		lo := chunk * partChunkRows
		units[chunk] = func(*qef.TaskCtx) error {
			fn(chunk, lo, min(lo+partChunkRows, n))
			return nil
		}
	}
	return ctx.RunParallel(units)
}

// PartitionByHash partitions cols by the CRC32 hash of keyCols according to
// the scheme. Round 0 uses the DMS hash engine (no dpCore cycles); later
// rounds run the software partitioning operator on all cores with
// DMEM-resident per-partition buffers flushed to DRAM as they fill (§5.3).
func PartitionByHash(ctx *qef.Context, cols []coltypes.Data, keyCols []int, scheme PartScheme, tileRows int) (*PartitionedRel, error) {
	if err := scheme.Validate(); err != nil {
		return nil, err
	}
	if err := checkCols(cols); err != nil {
		return nil, err
	}
	// The hash vector: CRC32 over the key columns, the values the DMS hash
	// engine delivers. Leased un-zeroed: the first key's pass seeds every
	// accumulator.
	var hv []uint32
	var hvWords []int64
	if len(cols) > 0 {
		hv, hvWords = ctx.Slab.U32(cols[0].Len())
		if len(keyCols) == 0 {
			clear(hv) // no key, no pass: one hash for every row, as before
		}
		err := forChunks(ctx, len(hv), func(_, lo, hi int) {
			for i, k := range keyCols {
				primitives.HashColumn(nil, cols[k].Slice(lo, hi), hv[lo:hi], i == 0)
			}
			primitives.HashFinalize(nil, hv[lo:hi])
		})
		if err != nil {
			return nil, err
		}
	}
	if ctx.Mode == qef.ModeDPU {
		// The hash pass runs on the DMS from the orchestrator, outside any
		// work unit; attribute its bytes/time to the active operator span so
		// the profile reconciles with the engine's transfer totals.
		ctx.AccountSpanTransfer(ctx.DMS.HashTiming(cols, keyCols))
	}
	if len(scheme.Rounds) == 0 {
		return &PartitionedRel{
			Cols: [][]coltypes.Data{cols}, Hashes: [][]uint32{hv},
			slab: ctx.Slab, leased: [][]int64{hvWords},
		}, nil
	}
	// Round 0: hardware partitioning by the low hash bits. The DMS does
	// this during the transfer; it is billed inside HashTiming's
	// partition-time model, and the dpCores stay idle.
	hw := scheme.Rounds[0]
	cur, err := splitPartition(ctx, ctx.Slab, cols, hv, hw, 0)
	ctx.Slab.Return(hvWords) // the hashes travel on in cur.Hashes
	if err != nil {
		return nil, err
	}
	shift := cur.Bits
	// Software rounds; a round's input is dead once the round has run.
	for _, fanout := range scheme.Rounds[1:] {
		next, err := swPartitionRound(ctx, cur, fanout, shift, tileRows)
		cur.Release()
		if err != nil {
			return nil, err
		}
		cur = next
		shift += uint(mathbits.Len(uint(fanout - 1)))
	}
	cur.Bits = shift
	return cur, nil
}

// splitPartition routes rows by hash bits [shift, shift+log2 fanout) — the
// functional effect of the hardware round, of a skew re-split and of the
// software operator. Histogram, prefix sum, one position vector, then one
// scatter per column into a single buffer the partitions are carved from:
// every output column is allocated once and every row copied once. Rows keep
// their input order inside a partition. A non-nil ModeX86 ctx runs histogram
// and scatter chunk-parallel (see forChunks); the per-chunk write cursors
// come from one serial prefix sum, so the result is the same stable split.
// The output is on lease from slab until the caller Releases it.
func splitPartition(ctx *qef.Context, slab *mem.Slab, cols []coltypes.Data, hv []uint32, fanout int, shift uint) (*PartitionedRel, error) {
	if err := checkCols(cols); err != nil {
		return nil, err
	}
	mask := uint32(fanout - 1)
	n := len(hv)
	// cursor[chunk*fanout+p]: first the chunk's row count for partition p,
	// after the prefix sum the position of its next row.
	cursor := make([]uint32, numChunks(ctx, n)*fanout)
	if err := forChunks(ctx, n, func(chunk, lo, hi int) {
		cnt := cursor[chunk*fanout : (chunk+1)*fanout]
		for _, h := range hv[lo:hi] {
			cnt[(h>>shift)&mask]++
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
	// scatter below writes every element of outHv and of each output column,
	// and every pos[i] is written before it is read.
	out := &PartitionedRel{
		Cols:   make([][]coltypes.Data, fanout),
		Hashes: make([][]uint32, fanout),
		Bits:   shift + uint(mathbits.Len(uint(fanout-1))),
		slab:   slab,
		leased: make([][]int64, 1+len(cols)),
	}
	var outHv []uint32
	outHv, out.leased[0] = slab.U32(n)
	outCols := make([]coltypes.Data, len(cols))
	for c, col := range cols {
		outCols[c], out.leased[1+c] = slab.Data(col.Width(), n)
	}
	pos, posWords := slab.U32(n)
	err := forChunks(ctx, n, func(chunk, lo, hi int) {
		next, cpos := cursor[chunk*fanout:(chunk+1)*fanout], pos[lo:hi]
		for i, h := range hv[lo:hi] {
			p := (h >> shift) & mask
			cpos[i] = next[p]
			outHv[next[p]] = h
			next[p]++
		}
		for c, col := range cols {
			coltypes.Scatter(outCols[c], col.Slice(lo, hi), cpos)
		}
	})
	slab.Return(posWords)
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

// SWPartitionRound runs one software partitioning round over an existing
// partitioned relation — exported for the Fig 10 micro-benchmark, which
// sweeps fan-out and tile size over the software operator in isolation.
func SWPartitionRound(ctx *qef.Context, in *PartitionedRel, fanout int, shift uint, tileRows int) (*PartitionedRel, error) {
	return swPartitionRound(ctx, in, fanout, shift, tileRows)
}

// swPartitionRound applies one software partitioning round to every current
// partition in parallel, one work unit per input partition; child c of input
// partition pi lands in slot pi*fanout+c.
func swPartitionRound(ctx *qef.Context, in *PartitionedRel, fanout int, shift uint, tileRows int) (*PartitionedRel, error) {
	nIn := in.NumPartitions()
	out := &PartitionedRel{
		Cols:   make([][]coltypes.Data, nIn*fanout),
		Hashes: make([][]uint32, nIn*fanout),
		slab:   ctx.Slab,
	}
	kids := make([]*PartitionedRel, nIn)
	units := make([]qef.WorkUnit, 0, nIn)
	for pi := 0; pi < nIn; pi++ {
		units = append(units, func(tc *qef.TaskCtx) (err error) {
			kids[pi], err = swPartitionOne(tc, in.Cols[pi], in.Hashes[pi], fanout, shift, tileRows)
			return err
		})
	}
	err := ctx.RunParallel(units)
	for pi, children := range kids {
		if children != nil {
			copy(out.Cols[pi*fanout:], children.Cols)
			copy(out.Hashes[pi*fanout:], children.Hashes)
			out.leased = append(out.leased, children.leased...)
		}
	}
	if err != nil {
		out.Release()
		return nil, err
	}
	// Children of empty input partitions.
	for slot := range out.Cols {
		if out.Cols[slot] == nil {
			out.Cols[slot] = emptyLike(in.Cols[0])
		}
	}
	return out, nil
}

// swPartitionOne is the software partitioning operator over one input
// partition (nil result for an empty one). The operator the paper describes
// streams tiles, computes the partition map (Listing 2), gathers each
// partition's rows into DMEM-local buffers (Listing 3) and flushes a buffer
// to DRAM whenever it fills. Functionally that is a stable split, so the data
// moves through splitPartition — child sizes are known from the hash vector —
// while the DMEM admission and, on a dpCore, the tile loop's billing are
// replayed exactly as the streaming operator incurs them.
func swPartitionOne(tc *qef.TaskCtx, cols []coltypes.Data, hv []uint32, fanout int, shift uint, tileRows int) (*PartitionedRel, error) {
	if len(hv) == 0 {
		return nil, nil
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
		return nil, fmt.Errorf("ops: fan-out %d leaves no DMEM for partition buffers", fanout)
	}
	if bufRows > 4096 {
		bufRows = 4096
	}
	if err := tc.DMEM.Alloc(fanout * bufRows * rowBytes); err != nil {
		return nil, err
	}
	for tileRows > qef.MinTileRows && 2*tileRows*rowBytes+tileRows*4+(fanout+1)*4 > tc.DMEM.Free() {
		tileRows /= 2
	}
	inBytes := 2 * tileRows * rowBytes
	mapBytes := tileRows*4 + (fanout+1)*4
	if err := tc.DMEM.Alloc(inBytes + mapBytes); err != nil {
		return nil, err
	}

	children, err := splitPartition(nil, tc.Ctx.Slab, cols, hv, fanout, shift)
	if err != nil || tc.Core == nil {
		return children, err
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
	for lo := 0; lo < len(hv); lo += tileRows {
		hi := min(lo+tileRows, len(hv))
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
	return children, nil
}

func emptyLike(cols []coltypes.Data) []coltypes.Data {
	out := make([]coltypes.Data, len(cols))
	for i, c := range cols {
		out[i] = c.NewSame(0)
	}
	return out
}
