package ops

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rapid/internal/bits"
	"rapid/internal/coltypes"
	"rapid/internal/plan"
	"rapid/internal/qef"
	"rapid/internal/storage"
)

// Equivalence pins. The values below were captured at the commit before the
// single-copy partition → join → materialise rewrite (PR 14) by running this
// file against that tree: the functional path may be reorganised at will, but
// partition contents, row order inside a partition and everything the DMEM /
// DMS / cycle model bills must not move. A mismatch prints the observed line
// in the table's own syntax. The modeled seconds are compared exactly: since
// PR 20 they are per-core sums reduced in core order. That reduction moved the
// last 1–3 digits of elapsed and bus on the eleven multi-round pins of 1000 and
// 100003 rows (re-captured once, then); signatures, cycles, busy seconds, DMS
// bytes and descriptors are the PR 14 values.

// partitionPin is one cell of the n × scheme × width grid.
type partitionPin struct {
	n       int
	scheme  string
	width   int
	sig     uint64  // FNV-1a over partition index, rows, hashes, Bits — in order
	cycles  int64   // SoC total dpCore cycles
	elapsed float64 // ctx.SimElapsed()
	busy    float64 // Σ ctx.Usage().CoreSeconds
	bus     float64 // read + write DDR bus seconds
	dmsB    int64   // DMS bytes moved, both directions
	dmsDesc int64   // DMS descriptors issued
}

var partitionPins = []partitionPin{
	{0, "32", 1, 0x812b20916c298720, 0, 0, 0, 0, 0, 1},
	{0, "32", 4, 0x812b20916c298720, 0, 0, 0, 0, 0, 1},
	{0, "32", 8, 0x812b20916c298720, 0, 0, 0, 0, 0, 1},
	{0, "8x16", 1, 0xd9122185f16c8362, 0, 0, 0, 0, 0, 1},
	{0, "8x16", 4, 0xd9122185f16c8362, 0, 0, 0, 0, 0, 1},
	{0, "8x16", 8, 0xd9122185f16c8362, 0, 0, 0, 0, 0, 1},
	{0, "8x8x4", 1, 0x1d1bdb92db79facd, 0, 0, 0, 0, 0, 1},
	{0, "8x8x4", 4, 0x1d1bdb92db79facd, 0, 0, 0, 0, 0, 1},
	{0, "8x8x4", 8, 0x1d1bdb92db79facd, 0, 0, 0, 0, 0, 1},
	{1, "32", 1, 0xe947da201ed9a793, 0, 0, 0, 0, 1, 1},
	{1, "32", 4, 0x42c80d2e275bd072, 0, 0, 0, 0, 4, 1},
	{1, "32", 8, 0xa164683937d7a66b, 0, 0, 0, 0, 8, 1},
	{1, "8x16", 1, 0x3d3d5938cebaeca5, 42, 5.25e-08, 5.25e-08, 3.735038759689923e-08, 21, 5},
	{1, "8x16", 4, 0x487774184486bde0, 42, 5.25e-08, 5.25e-08, 3.828062015503876e-08, 36, 5},
	{1, "8x16", 8, 0x7216af6731c99e45, 42, 5.25e-08, 5.25e-08, 3.952093023255814e-08, 56, 5},
	{1, "8x8x4", 1, 0x81e1bf2c934986e, 44, 4.715038759689923e-08, 7.470077519379846e-08, 7.470077519379846e-08, 41, 9},
	{1, "8x8x4", 4, 0xf692c4c25ac02743, 44, 4.808062015503876e-08, 7.656124031007752e-08, 7.656124031007752e-08, 68, 9},
	{1, "8x8x4", 8, 0xb395f6e959defaaa, 44, 4.932093023255814e-08, 7.904186046511628e-08, 7.904186046511628e-08, 104, 9},
	{1000, "32", 1, 0xc9813b054e6c4846, 0, 0, 0, 0, 1000, 1},
	{1000, "32", 4, 0x49eaee0a01bf0104, 0, 0, 0, 0, 4000, 1},
	{1000, "32", 8, 0xc826d55256018758, 0, 0, 0, 0, 8000, 1},
	{1000, "8x16", 1, 0x848bd0dffadb903a, 10256, 2.296193798449612e-06, 1.282e-05, 3.2537875968992246e-06, 21000, 142},
	{1000, "8x16", 4, 0x318f303a0bf14cb2, 10256, 2.90431007751938e-06, 1.282e-05, 4.32702015503876e-06, 36000, 153},
	{1000, "8x16", 8, 0x93018dedd33d3652, 10256, 3.5244651162790694e-06, 1.2820000000000003e-05, 5.567330232558139e-06, 56000, 153},
	{1000, "8x8x4", 1, 0x515f2db6e7421853, 20624, 4.384387596899226e-06, 2.5780000000000007e-05, 7.530775193798451e-06, 41000, 429},
	{1000, "8x8x4", 4, 0x4eb35755aecfabc9, 20640, 6.562620155038761e-06, 2.5800000000000007e-05, 1.0684840310077521e-05, 68000, 531},
	{1000, "8x8x4", 8, 0xf80353c343afb93b, 20640, 7.82893023255814e-06, 2.5800000000000004e-05, 1.3191460465116279e-05, 104000, 533},
	{100003, "32", 1, 0xe22c8220d544e944, 0, 0, 0, 0, 100003, 1},
	{100003, "32", 4, 0xc0f602a9eb1040bb, 0, 0, 0, 0, 400012, 1},
	{100003, "32", 8, 0xcf73b46b0421ea71, 0, 0, 0, 0, 800024, 1},
	{100003, "8x16", 1, 0xf9eadc1f68da6632, 1012670, 0.00019823, 0.0012658375, 0.00018261341085271321, 2100063, 2614},
	{100003, "8x16", 4, 0x19b452bfa1c9e94e, 1012638, 0.000160725, 0.0012657975, 0.0002834036573643414, 3600108, 3210},
	{100003, "8x16", 8, 0x253f6d89908bd2ce, 1012638, 0.00022299809302325693, 0.0012657975, 0.0004180333860465129, 5600168, 4025},
	{100003, "8x8x4", 1, 0x7ad778db52a99f93, 2009780, 0.00022528999999999998, 0.002512225, 0.0003437068217054263, 4100123, 3609},
	{100003, "8x8x4", 4, 0x43872813c0c7decb, 2009828, 0.00026850545736434105, 0.0025122850000000004, 0.0005354305147286824, 6800204, 4054},
	{100003, "8x8x4", 8, 0xa4bf52bb2b033e29, 2009820, 0.0004003531860465122, 0.002512275000000001, 0.0007912901720930242, 10400312, 4652},
}

func pinScheme(s string) PartScheme {
	var rounds []int
	for _, f := range strings.Split(s, "x") {
		var r int
		fmt.Sscan(f, &r)
		rounds = append(rounds, r)
	}
	return PartScheme{Rounds: rounds}
}

// pinCols builds (key, payload) at the given width plus a 64-bit row id that
// makes any reordering inside a partition visible in the signature.
func pinCols(n, width int) []coltypes.Data {
	rng := rand.New(rand.NewSource(int64(n)*31 + int64(width)))
	w := coltypes.Width(width)
	key, pay, rid := coltypes.New(w, n), coltypes.New(w, n), make([]int64, n)
	for i := 0; i < n; i++ {
		key.Set(i, rng.Int63())
		pay.Set(i, rng.Int63())
		rid[i] = int64(i)
	}
	return []coltypes.Data{key, pay, coltypes.Of(rid)}
}

func partitionSignature(p *PartitionedRel) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(p.Bits))
	for pi := range p.Cols {
		put(uint64(pi))
		put(uint64(p.Rows(pi)))
		for i := 0; i < p.Rows(pi); i++ {
			for _, c := range p.Cols[pi] {
				put(uint64(c.Get(i)))
			}
			put(uint64(p.Hashes[pi][i]))
		}
	}
	return h.Sum64()
}

func TestPartitionByHashPins(t *testing.T) {
	want := map[string]partitionPin{}
	for _, p := range partitionPins {
		want[fmt.Sprintf("%d/%s/%d", p.n, p.scheme, p.width)] = p
	}
	for _, n := range []int{0, 1, 1000, 100003} {
		for _, scheme := range []string{"32", "8x16", "8x8x4"} {
			for _, width := range []int{1, 4, 8} {
				ctx := qef.NewContext(qef.ModeDPU)
				parts, err := PartitionByHash(ctx, [][]coltypes.Data{pinCols(n, width)}, []int{0}, pinScheme(scheme), qef.DefaultTileRows)
				if err != nil {
					t.Fatalf("n=%d %s w=%d: %v", n, scheme, width, err)
				}
				u := ctx.Usage()
				var busy float64
				for _, sec := range u.CoreSeconds {
					busy += sec
				}
				got := partitionPin{n, scheme, width, partitionSignature(parts),
					u.Cycles(), u.SimElapsed(), busy, u.BusRead + u.BusWrite,
					u.Read.Bytes + u.Write.Bytes, u.Descriptors()}
				w := want[fmt.Sprintf("%d/%s/%d", n, scheme, width)]
				if got.sig != w.sig || got.cycles != w.cycles || got.dmsB != w.dmsB || got.dmsDesc != w.dmsDesc ||
					got.elapsed != w.elapsed || got.busy != w.busy || got.bus != w.bus {
					t.Errorf("pin moved:\n\t{%d, %q, %d, %#x, %d, %v, %v, %v, %d, %d},",
						got.n, got.scheme, got.width, got.sig, got.cycles, got.elapsed, got.busy, got.bus, got.dmsB, got.dmsDesc)
				}
			}
		}
	}
}

// joinPins: total dpCore cycles and the output bag signature of one HashJoin
// per join type (ModeDPU, 16x4 scheme so hardware and software rounds both
// run).
var joinPins = map[plan.JoinType]struct {
	rows   int
	cycles int64
	bag    uint64
}{
	plan.InnerJoin:     {9945, 817959, 0x204d74e3be516f8d},
	plan.SemiJoin:      {9945, 760814, 0x158466e3abfdccc3},
	plan.AntiJoin:      {10055, 761034, 0x71adafa9fd24220f},
	plan.LeftOuterJoin: {20000, 838069, 0x91fb248dbb75919c},
}

func TestHashJoinCyclePins(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	nb, np := 3000, 20000
	bk := seq(nb, func(i int) int64 { return int64(i) })
	pk := seq(np, func(i int) int64 { return int64(rng.Intn(2 * nb)) })
	build := intRel([]string{"bk", "bv"}, bk, seq(nb, func(i int) int64 { return int64(i * 10) }))
	probe := intRel([]string{"pk", "pv"}, pk, seq(np, func(i int) int64 { return int64(i) }))
	for _, jt := range []plan.JoinType{plan.InnerJoin, plan.SemiJoin, plan.AntiJoin, plan.LeftOuterJoin} {
		ctx := qef.NewContext(qef.ModeDPU)
		out, err := HashJoin(ctx, build, probe, JoinSpec{
			Type: jt, BuildKeys: []int{0}, ProbeKeys: []int{0},
			BuildPayload: []int{1}, ProbePayload: []int{0, 1},
			Scheme: PartScheme{Rounds: []int{16, 4}},
		})
		if err != nil {
			t.Fatalf("%v: %v", jt, err)
		}
		// Order-independent bag signature: the sum of per-row hashes.
		var bag uint64
		for i := 0; i < out.Rows(); i++ {
			h := uint64(14695981039346656037)
			for c := range out.Cols {
				h = (h ^ uint64(out.Get(i, c))) * 1099511628211
			}
			bag += h
		}
		got := joinPins[jt]
		if out.Rows() != got.rows || int64(ctx.SoC.TotalCycles()) != got.cycles || bag != got.bag {
			t.Errorf("join pin moved:\n\t%s: {%d, %d, %#x},", joinTypeIdent(jt), out.Rows(), ctx.SoC.TotalCycles(), bag)
		}
	}
}

func joinTypeIdent(jt plan.JoinType) string {
	return map[plan.JoinType]string{plan.InnerJoin: "InnerJoin", plan.SemiJoin: "SemiJoin",
		plan.AntiJoin: "AntiJoin", plan.LeftOuterJoin: "LeftOuterJoin"}[jt]
}

// aggPins: total dpCore cycles and the result bag signature of every
// aggregator in ModeDPU, captured before the aggregators shared one fold
// kernel (AggKind.accumulate over a group-id vector). A refactor of the fold
// may move neither.
var aggPins = map[string]struct {
	cycles int64
	bag    uint64
}{
	"groupby/dense":                          {112410, 0x6fb5b940a9c01494},
	"groupby/rids":                           {50943, 0x8704d4ba8f9ae935},
	"groupby/sel":                            {86706, 0xe3ac3ac0aaef0234},
	"merger/keys=0":                          {0, 0x620070e802e0a690},
	"merger/keys=1":                          {0, 0x5bebe258ba4cb3ed},
	"merger/keys=2":                          {0, 0xf954c58e536df5e5},
	"partitioned":                            {97500, 0x35f6e29a13e9a3b2},
	"partitioned/resplit":                    {97495, 0x35f6e29a13e9a3b2},
	"preagg/keys=1/slots=1/filtered=false":   {0, 0xd567813e4c4b6419},
	"preagg/keys=1/slots=1/filtered=true":    {1209, 0x7cae3eaead68deb8},
	"preagg/keys=1/slots=40/filtered=false":  {7781, 0x539f59dd4e9ac297},
	"preagg/keys=1/slots=40/filtered=true":   {3900, 0xce0572d8ee764a63},
	"preagg/keys=2/slots=1/filtered=false":   {0, 0x4fad295c3755e46d},
	"preagg/keys=2/slots=1/filtered=true":    {1209, 0x978fbeaee9d8b708},
	"preagg/keys=2/slots=120/filtered=false": {9675, 0x500c55637b04ce64},
	"preagg/keys=2/slots=120/filtered=true":  {5141, 0x69d741a1165249c6},
	"scalar/dense":                           {52860, 0x13866b6fd9258c4f},
	"scalar/rids":                            {31783, 0xd03753e0a32a1537},
	"scalar/sel":                             {42276, 0x20dac57a375da27b},
}

// bagSignature is an order-independent signature of rel's rows: the sum of
// their FNV-1a hashes.
func bagSignature(rel *Relation) uint64 {
	var bag uint64
	for i := 0; i < rel.Rows(); i++ {
		h := uint64(14695981039346656037)
		for c := range rel.Cols {
			h = (h ^ uint64(rel.Get(i, c))) * 1099511628211
		}
		bag += h
	}
	return bag
}

// tileShape hands each tile on dense, with a bit-vector keeping two rows in
// three, or with a RID list keeping one row in five.
type tileShape struct {
	shape string
	Next  qef.Operator
}

func (s *tileShape) DMEMSize(rows int) int       { return s.Next.DMEMSize(rows) }
func (s *tileShape) Open(tc *qef.TaskCtx) error  { return s.Next.Open(tc) }
func (s *tileShape) Close(tc *qef.TaskCtx) error { return s.Next.Close(tc) }
func (s *tileShape) Produce(tc *qef.TaskCtx, t *qef.Tile) error {
	shaped := *t
	switch s.shape {
	case "sel":
		shaped.Sel = bits.NewVector(t.N)
		for i := 0; i < t.N; i++ {
			if i%3 != 0 {
				shaped.Sel.Set(i)
			}
		}
	case "rids":
		for i := 1; i < t.N; i += 5 {
			shaped.RIDs = append(shaped.RIDs, uint32(i))
		}
	}
	return s.Next.Produce(tc, &shaped)
}

// aggPinRel is 3000 rows of two keys (7 and 5 values, 1 and 4 bytes wide),
// a 2-byte argument with negatives and an 8-byte one of large values.
func aggPinRel() *Relation {
	const n = 3000
	k1, k2, v, w := coltypes.New(coltypes.W1, n), coltypes.New(coltypes.W4, n), coltypes.New(coltypes.W2, n), make([]int64, n)
	for i := 0; i < n; i++ {
		k1.Set(i, int64(i%7-3))
		k2.Set(i, int64((i*13)%5)*1000003)
		v.Set(i, int64((i*37)%1001-500))
		w[i] = int64((i*7919)%100003) * 1000003
	}
	return MustRelation([]Col{{Name: "k1"}, {Name: "k2"}, {Name: "v"}, {Name: "w"}},
		[]coltypes.Data{k1, k2, v, coltypes.Of(w)})
}

// aggPinSpecs is one spec of every AggKind over v, plus SUM and MIN of
// v·k1 and MAX of w.
func aggPinSpecs() ([]AggSpec, *Program) {
	var b ProgramBuilder
	var specs []AggSpec
	for _, k := range preAggKinds {
		specs = append(specs, AggSpec{Kind: k, Arg: b.Col(2), Name: k.String()})
	}
	prod := b.Arith(plan.Mul, b.Col(2), b.Col(0))
	specs = append(specs, AggSpec{Kind: AggSum, Arg: prod}, AggSpec{Kind: AggMin, Arg: prod}, AggSpec{Kind: AggMax, Arg: b.Col(3)})
	return specs, b.Program()
}

func TestAggregateCyclePins(t *testing.T) {
	rel := aggPinRel()
	specs, prog := aggPinSpecs()
	got := map[string]struct {
		cycles int64
		bag    uint64
	}{}
	pin := func(name string, ctx *qef.Context, out *Relation) {
		var cycles int64
		if ctx != nil {
			cycles = int64(ctx.SoC.TotalCycles())
		}
		got[name] = struct {
			cycles int64
			bag    uint64
		}{cycles, bagSignature(out)}
	}
	for _, shape := range []string{"dense", "sel", "rids"} {
		ctx := qef.NewContext(qef.ModeDPU)
		merger := NewGroupMerger(0, specs)
		if err := RelationScan(ctx, rel, 256, func() qef.Operator {
			return &tileShape{shape: shape, Next: &ScalarAggOp{Specs: specs, Prog: prog, Merger: merger}}
		}); err != nil {
			t.Fatal(err)
		}
		pin("scalar/"+shape, ctx, merger.Relation(nil, nil))

		ctx = qef.NewContext(qef.ModeDPU)
		merger = NewGroupMerger(2, specs)
		if err := RelationScan(ctx, rel, 256, func() qef.Operator {
			return &tileShape{shape: shape, Next: &GroupByOp{GroupCols: []int{0, 1}, Specs: specs, Prog: prog, MaxGroups: 64, Merger: merger}}
		}); err != nil {
			t.Fatal(err)
		}
		pin("groupby/"+shape, ctx, merger.Relation(rel.Cols, nil))
	}

	// The partitioned group-by over (k1, v): 1,001 groups (i mod 1001 sets
	// both) in 4 partitions of about 250, at a cap above that and at one
	// below it, which re-splits every partition once.
	for _, c := range []struct {
		name string
		cap  int
	}{{"partitioned", 512}, {"partitioned/resplit", 128}} {
		ctx := qef.NewContext(qef.ModeDPU)
		out, err := GroupByPartitioned(ctx, rel, []int{0, 2}, specs, prog, PartScheme{Rounds: []int{4}}, c.cap)
		if err != nil {
			t.Fatal(err)
		}
		pin(c.name, ctx, out)
	}

	// The pre-aggregation over preAggTable, dense and filtered (a bit-vector
	// in chunks 0 and 1, a RID list in chunk 3), with one key and two; armed
	// at the test's caps (chunk 1 passes through) and at one slot, where
	// every unit passes through.
	snap := preAggTable(t).Snapshot(storage.LatestSCN)
	for _, keys := range []int{1, 2} {
		for _, slots := range []int{40 * (2*keys - 1), 1} {
			for _, filtered := range []bool{false, true} {
				op := PreAggOp{Slots: slots}
				for k := 0; k < keys; k++ {
					op.Keys = append(op.Keys, PreAggKey{Col: k, Scan: k, Width: coltypes.W1})
				}
				for _, k := range preAggKinds {
					op.States = append(op.States, PreAggState{Kind: k, Col: 2})
				}
				ctx := qef.NewContext(qef.ModeDPU)
				sink := NewCollectSink(make([]Col, keys+len(preAggKinds)))
				if err := TableScan(ctx, snap, []int{0, 1, 2, 3}, 64, nil, func() qef.Operator {
					p := op
					p.Next = sink
					if !filtered {
						return &p
					}
					return &FilterOp{Pred: &ConstCmp{Col: 3, Op: plan.NE, Val: 0}, Next: &p}
				}); err != nil {
					t.Fatal(err)
				}
				pin(fmt.Sprintf("preagg/keys=%d/slots=%d/filtered=%v", keys, slots, filtered), ctx, sink.Relation())
			}
		}
	}

	// The merger over batches of partial rows with 0 to 2 keys of mixed
	// widths, duplicate keys across batches.
	for nk := 0; nk <= 2; nk++ {
		m := NewGroupMerger(nk, specs)
		rng := rand.New(rand.NewSource(int64(47 + nk)))
		for batch := 0; batch < 5; batch++ {
			n := 1 + rng.Intn(200)
			cols := make([]coltypes.Data, nk+len(specs))
			for c := range cols {
				w := coltypes.W8
				if c < nk {
					w = []coltypes.Width{coltypes.W1, coltypes.W4}[c]
				}
				cols[c] = coltypes.New(w, n)
				for i := 0; i < n; i++ {
					v := rng.Int63n(1<<20) - 1<<19
					if c < nk {
						v = int64(rng.Intn(9) - 4)
					}
					cols[c].Set(i, v)
				}
			}
			m.Fold(cols[:nk], cols[nk:])
		}
		pin(fmt.Sprintf("merger/keys=%d", nk), nil, m.Relation(make([]Col, nk), nil))
	}

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, w := got[name], aggPins[name]
		if g != w {
			t.Errorf("aggregate pin moved:\n\t%q: {%d, %#x},", name, g.cycles, g.bag)
		}
	}
	if len(aggPins) != len(got) {
		t.Errorf("%d aggregate pins, %d cases", len(aggPins), len(got))
	}
}
