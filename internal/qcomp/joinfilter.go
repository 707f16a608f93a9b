package qcomp

import (
	"fmt"
	"math"
	mathbits "math/bits"
	"strings"

	"rapid/internal/dms"
	"rapid/internal/mem"
	"rapid/internal/ops"
	"rapid/internal/plan"
	"rapid/internal/primitives"
	"rapid/internal/qef"
)

// The join filter schedule (DESIGN.md "Join filter"): every inner or semi
// join may fill a bit-vector filter from its build keys, and the filter is
// tested in the collecting pipeline that produces the probe key columns —
// the join's own probe side, or a pipeline deeper in it whose rows reach the
// join unchanged. A join that fills a filter runs its build side first, so
// the build side is itself narrowed by the filters of the joins above it
// before it fills its own: Q21lite runs nation, then supplier tested on
// s_nationkey, then lineitem tested on l_suppkey beside l_orderkey.

// joinFilter is one edge of the schedule: the filter join fills, tested by
// host on keys.
type joinFilter struct {
	join *joinNode
	host *pipelineNode
	keys []int   // host output columns, in the join's build keys' order
	ndv  float64 // distinct count of the host keys' values (table statistics)
	// hops are the join inputs between join and host, from join's probe side
	// down to the input host is; the filter passes on its fraction of rows to
	// each.
	hops []filterHop
	step int // the stepJoinFilter's index in host.steps
}

// filterHop is an input of a join: side 0 is its left, 1 its right.
type filterHop struct {
	join *joinNode
	side int
}

// filterSet holds one execution's filled filters, by schedule edge; a join
// filter step whose edge is absent passes every row.
type filterSet map[*joinFilter]*ops.JoinFilter

// part is the join that partitions the host's rows: the host is its input.
func (f *joinFilter) part() *joinNode { return f.hops[len(f.hops)-1].join }

// credited reports whether the host is the build side of its join and that
// join has a filter edge, which the rows this filter drops narrow.
func (f *joinFilter) credited() bool {
	part := f.part()
	return part.build() == f.host && part.filter != nil
}

// schedule plans the join filters of the lowered plan and gives each host its
// join filter steps, in the order the joins were lowered (bottom-up). It
// returns the edges in the order the joins fill them: top-down.
//
// An edge whose filter cannot arm gets no step (mayArm), and dropping one
// may leave another without the credit or the narrowed build it counted on,
// so the rule is applied until nothing changes.
func (lw *lowering) schedule() []*joinFilter {
	var all []*joinFilter
	for _, n := range lw.joins {
		if n.filter = n.traceFilter(); n.filter != nil {
			f := n.filter
			f.step = len(f.host.steps)
			f.host.steps = append(f.host.steps, pipeStep{kind: stepJoinFilter, jf: f})
			all = append(all, f)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, f := range all {
			if f.join.filter == f && !f.mayArm() {
				f.join.filter, changed = nil, true
			}
		}
	}
	var sched []*joinFilter
	for i := len(all) - 1; i >= 0; i-- {
		if f := all[i]; f.join.filter == f {
			sched = append(sched, f)
		}
	}
	for _, f := range all {
		p := f.host
		steps := p.steps[:0]
		for _, s := range p.steps {
			if s.kind == stepJoinFilter {
				if s.jf.join.filter != s.jf {
					continue
				}
				s.jf.step = len(steps)
			}
			steps = append(steps, s)
		}
		p.steps = steps
	}
	return sched
}

// traceFilter returns the edge of the filter n may fill: an inner or semi
// join's build keys, tested where its probe keys are produced. Each probe key
// is traced down to its collecting pipeline; both keys of a 2-key join must
// reach the same one, and the table statistics must give the keys' distinct
// count, which the arming rule needs. Anti and outer joins fill none: they
// emit the probe rows that match nothing.
func (n *joinNode) traceFilter() *joinFilter {
	if n.typ != plan.InnerJoin && n.typ != plan.SemiJoin {
		return nil
	}
	f, side := &joinFilter{join: n, ndv: 1}, 0
	if n.swapped {
		side = 1
	}
	for _, k := range n.probeKeys() {
		host, col, hops := traceCol(n.probe(), k, []filterHop{{join: n, side: side}})
		if host == nil || f.host != nil && host != f.host {
			return nil
		}
		st := host.cols[col].stats
		if st == nil || st.NDV <= 0 {
			return nil
		}
		f.host, f.hops = host, hops
		f.keys = append(f.keys, col)
		f.ndv *= float64(st.NDV)
	}
	return f
}

// traceCol follows column col of n's output down to the collecting pipeline
// that produces it, and returns that pipeline, the column there, and hops
// extended by the join inputs it crossed. A filter moves only into an input
// whose rows reach the join above unchanged: either input of an inner join,
// the left input of a semi or anti join (the only one they output), the
// preserved left input of a left outer join. It follows a pipeline's bare
// columns and filters into a streamed input; where it can go no deeper, the
// pipeline itself is the host. It returns a nil pipeline when n is no
// collecting pipeline and no join it may cross (a group-by, a sort, a
// relation spliced in from an exchange).
func traceCol(n physNode, col int, hops []filterHop) (*pipelineNode, int, []filterHop) {
	switch n := n.(type) {
	case *joinNode:
		c, in, side := n.src[col], n.left, 0
		if nl := len(n.left.fields()); c >= nl {
			if n.typ != plan.InnerJoin {
				return nil, 0, nil
			}
			c, in, side = c-nl, n.right, 1
		}
		return traceCol(in, c, append(hops, filterHop{join: n, side: side}))
	case *headerMove:
		return traceCol(n.input, n.keep[col], hops)
	case *pipelineNode:
		if n.terminal != termCollect {
			return nil, 0, nil
		}
		if c := n.scanCol(col); n.input != nil && c >= 0 {
			if host, hc, h := traceCol(n.input, c, hops); host != nil {
				return host, hc, h
			}
		}
		return n, col, hops
	}
	return nil, 0, nil
}

// mayArm reports whether the filter can arm at all, which is what gives it a
// step. Its dropped rows must save reads: the join that partitions the host's
// rows has a software round, or the host is that join's build side and
// narrows its filter (credited). And a join whose build side is a base table
// read whole — no filter, no join filter tested in it — fills from rows the
// compiler knows, so the rule is applied to them now.
func (f *joinFilter) mayArm() bool {
	if f.part().swRounds() == 0 && !f.credited() {
		return false
	}
	b, ok := f.join.build().(*pipelineNode)
	if !ok || b.snap == nil {
		return true
	}
	for _, s := range b.steps {
		if s.kind == stepFilter || s.kind == stepJoinFilter && s.jf.join.filter == s.jf {
			return true
		}
	}
	_, _, arm := f.arm(int64(b.snap.TotalRows()), nil)
	return arm
}

// joinFilterMaxLogBits caps a join filter at 2^17 bits, 16 KiB: half of a
// dpCore's DMEM.
const joinFilterMaxLogBits = 17

// arm is the arming rule of the filter over nb build rows, with resident
// (by host step, nil for none) the bytes of the filters already armed in the
// host: the log2 of its bit count m, its estimated pass fraction, and whether
// to arm it.
//
// m is nextPow2(8·nb), at least a word per build partition of the filling
// join and at most 2^joinFilterMaxLogBits. Of the host rows a fraction
// f = min(1, nb/NDV) is expected to match and the rest to pass by chance at
// 1 - e^(-nb/m), one hash's false-positive rate. The filter is armed when it
// pays on the dpCores and on the DMS reads, which bound the statements that
// scan more than they write:
//   - cycles: the pass fraction is below primitives.JoinFilterBreakEven;
//   - reads: the DMS reads it adds — the vector's placement in every core's
//     DMEM, the fill's read of the build hashes, and the scan descriptors of
//     the smaller tiles the host may need to keep the vector resident beside
//     the filters already there — are at most the reads it saves (saved).
//
// Where a filter of m bits fails the read test a smaller one is tried, down
// to a word per partition. The writes need no test: a dropped row saves its
// collect write, which exceeds the vector's own.
func (f *joinFilter) arm(nb int64, resident []int) (logBits uint, pass float64, arm bool) {
	p := f.host
	minLog, maxLog := f.sizes(nb)
	budget := mem.DMEMSize - dmemReserve
	tile0 := ChooseTileRows(p.opReqs(resident))
	with := make([]int, len(p.steps))
	copy(with, resident)
	srcRows, srcCols := float64(p.srcRows()), float64(p.srcCols())
	dm := dms.DefaultModel()
	descBytes := (dm.DescriptorIssueNs + dm.PageSwitchBaseNs + dm.PageSwitchPerColNs*srcCols) * 1e-9 * dm.PeakBytesPerSec
	for logBits = maxLog; logBits >= minLog; logBits-- {
		m := float64(uint64(1) << logBits)
		if pass = f.pass(nb, logBits); pass >= primitives.JoinFilterBreakEven(len(f.keys)) {
			return logBits, pass, false // a smaller filter passes more
		}
		with[f.step] = int(m) / 8
		tile := maxTileRowsFor(p.opReqs(with), budget)
		if tile == 0 {
			continue
		}
		added := dpuCores*m/8 + 4*float64(nb) + (srcRows/float64(tile)-srcRows/float64(tile0))*srcCols*descBytes
		if f.saved(pass) >= added {
			return logBits, pass, true
		}
	}
	return minLog, pass, false
}

// sizes are the log2 of the filter's smallest and largest bit counts over nb
// build rows: a word per build partition of the filling join, and
// nextPow2(8·nb) within those bounds and 2^joinFilterMaxLogBits.
func (f *joinFilter) sizes(nb int64) (minLog, maxLog uint) {
	minLog = uint(mathbits.Len(uint(f.join.scheme.Fanout()))) + 5 // log2(fanout) + 6
	maxLog = minLog
	if nb > 0 {
		maxLog = max(minLog, uint(mathbits.Len64(uint64(8*nb-1))))
	}
	return minLog, min(maxLog, joinFilterMaxLogBits)
}

// pass is the filter's estimated pass fraction over nb build rows at 2^logBits
// bits.
func (f *joinFilter) pass(nb int64, logBits uint) float64 {
	frac := min(1, float64(nb)/f.ndv)
	return frac + (1-frac)*(1-math.Exp(-float64(nb)/float64(uint64(1)<<logBits)))
}

// saved is the DMS reads the filter saves at pass fraction pass:
//   - the reads that the software rounds (every round after the DMS's first)
//     of the join partitioning the host's rows no longer make of the
//     (1 - pass)·est rows it drops;
//   - when the host is that join's build side (credited), the reads the
//     join's own filter then saves beyond those it saves at the host's full
//     estimate: the narrowed build passes fewer rows of the join's probe side.
//     Without that credit a filter feeding a join partitioned in one round
//     (Q21lite's and Q5's small dimension joins) would never arm, though the
//     rows its narrowed build drops further down are the largest saving.
//
// The credit recurses down the schedule, so a chain of build sides (Q5:
// region, nation, supplier, lineitem) is priced to its end. A row dropped
// between two joins saves more than this — every join it no longer crosses —
// so the rule is conservative.
func (f *joinFilter) saved(pass float64) float64 {
	p, part := f.host, f.part()
	s := (1 - pass) * float64(p.est) * 8 * float64(len(p.cols)) * float64(part.swRounds())
	if f.credited() {
		d, nb := part.filter, float64(p.est)
		s += max(d.savedAt(int64(pass*nb))-d.savedAt(int64(nb)), 0)
	}
	return s
}

// savedAt is the reads the filter saves at nb build rows and its largest
// size, 0 when it passes too many rows there to save cycles. The credit it
// gives leaves the filter's own read test out, so that pricing a chain takes
// one evaluation a level rather than one per size tried.
func (f *joinFilter) savedAt(nb int64) float64 {
	_, maxLog := f.sizes(nb)
	if pass := f.pass(nb, maxLog); pass < primitives.JoinFilterBreakEven(len(f.keys)) {
		return f.saved(pass)
	}
	return 0
}

// fill applies the arming rule to the executed build side of the filter's
// join, nb rows, and puts the filled filter in fs when it arms. Armed, the
// build side is partitioned (under the join's span, as the join would) and
// the filter filled from the partitions' hashes (under the filter's span).
// The EXPLAIN detail of the filter states its size, or that it stayed off.
func (f *joinFilter) fill(ctx *qef.Context, jb *ops.JoinBuild, nb int, fs filterSet) error {
	id := f.host.stepIDs[f.step]
	_, resident := f.host.armed(fs, f)
	logBits, _, arm := f.arm(int64(nb), resident)
	if !arm {
		delete(fs, f)
		ctx.Prof.SetDetail(id, f.detail("off"))
		return nil
	}
	prev := ctx.SetActiveSpan(ctx.Prof.Span(f.join.opID))
	err := jb.Partition(ctx)
	var jf *ops.JoinFilter
	if err == nil {
		ctx.SetActiveSpan(ctx.Prof.Span(id))
		jf, err = jb.Filter(ctx, f.keys, logBits)
	}
	ctx.SetActiveSpan(prev)
	if err != nil {
		return err
	}
	fs[f] = jf
	ctx.Prof.SetDetail(id, f.detail(fmt.Sprintf("bits=%d", jf.Bits())))
	return nil
}

// detail is the filter's EXPLAIN detail: the columns it tests, each against
// the build key of the join that fills it, then state when not empty.
func (f *joinFilter) detail(state string) string {
	build := f.join.build().fields()
	var b strings.Builder
	b.WriteString("(")
	for i, k := range f.keys {
		if i > 0 {
			b.WriteString(" AND ")
		}
		fmt.Fprintf(&b, "%s = %s", f.host.cols[k].field.Name, build[f.join.buildKeys()[i]].Name)
	}
	if state != "" {
		b.WriteString(", " + state)
	}
	b.WriteString(")")
	return b.String()
}

// armed returns the filters fs holds for p's join filter steps and their
// resident bytes, both by step and nil when none is armed; skip is left out.
func (p *pipelineNode) armed(fs filterSet, skip *joinFilter) ([]*ops.JoinFilter, []int) {
	var jfs []*ops.JoinFilter
	var bytes []int
	for i, s := range p.steps {
		jf := fs[s.jf]
		if s.kind != stepJoinFilter || s.jf == skip || jf == nil {
			continue
		}
		if jfs == nil {
			jfs, bytes = make([]*ops.JoinFilter, len(p.steps)), make([]int, len(p.steps))
		}
		jfs[i], bytes[i] = jf, jf.ResidentBytes()
	}
	return jfs, bytes
}
