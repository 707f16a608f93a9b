package cluster

import (
	"fmt"
	"slices"

	"rapid/internal/ops"
	"rapid/internal/plan"
	"rapid/internal/qcomp"
	"rapid/internal/storage"
)

// The distributed planner works on one plan tree — the coordinator-bound
// plan, every node's copy of which differs only in which shard its Scan
// leaves read and which share of an exchange output its relLeaf leaves carry.
// The tree is bound to a node only where it is compiled (bind). A fragment is
// node-local when every node can execute the tree over its own shards and the
// union of the per-node results equals the global result. Planning a subtree
// is two steps: classify decides, without running anything, whether it is
// node-local; localize then builds its recipe bottom-up, splicing in exchange
// outputs as materialized relation leaves (relLeaf) where a join is not
// co-located and choosing the side to move by bytes — the tray's version of
// the paper's "maximally push work to where the data lives". Before either,
// lift moves each semi or anti join whose sub-query is not node-local back
// above the inner joins the binder placed it under.

// relLeaf is a plan leaf over an exchange output (placed): parts[i] is node
// i's share, which bind hands to CompileWithInputs as the leaf's relation on
// node i.
type relLeaf struct {
	parts []*ops.Relation
	fs    []plan.Field
}

func (r *relLeaf) Schema() []plan.Field  { return r.fs }
func (r *relLeaf) Children() []plan.Node { return nil }
func (r *relLeaf) String() string        { return fmt.Sprintf("Exchange[%d cols]", len(r.fs)) }

// bind is node i's copy of a planned tree: every Scan reads node i's shard of
// the set the query resolved, and every relLeaf compiles to its share
// parts[i] (the inputs returned for CompileWithInputs). Nothing above the
// leaves differs between nodes, and the operators' expressions are shared.
func (q *query) bind(tree plan.Node, i int) (plan.Node, map[plan.Node]*ops.Relation, error) {
	var inputs map[plan.Node]*ops.Relation
	bound, err := plan.MapLeaves(tree, func(l plan.Node) (plan.Node, error) {
		switch l := l.(type) {
		case *plan.Scan:
			return plan.NewScan(q.shards[l.Table.Name()][i], l.SCN, l.Cols), nil
		case *relLeaf:
			if inputs == nil {
				inputs = make(map[plan.Node]*ops.Relation)
			}
			inputs[l] = l.parts[i]
			return l, nil
		}
		return nil, fmt.Errorf("cluster: cannot distribute plan leaf %T", l)
	})
	return bound, inputs, err
}

// layout is how the combined output of a node-local subtree is spread over
// the tray's nodes.
type layout struct {
	// repl: every node produces the identical full result (the subtree reads
	// only replicated inputs).
	repl bool
	// cols are the output columns that carry the partition key: a row lives
	// on node part.NodeFor(row[c]) for every c in cols. It is a set because an
	// inner equi-join's output carries the key on both sides' key columns.
	// Empty, with part nil, when the rows are spread with no usable key.
	cols []int
	part *storage.ShardMap
}

func (l layout) on(col int) bool { return slices.Contains(l.cols, col) }

// shifted is l as the right side of a join whose left side has nLeft columns.
func (l layout) shifted(nLeft int) layout {
	out := layout{repl: l.repl, part: l.part, cols: make([]int, len(l.cols))}
	for i, c := range l.cols {
		out.cols[i] = c + nLeft
	}
	return out
}

// scanLayout reads a Scan's layout off its shard's map; every Scan the
// planner sees reads a tray shard (Tray.resolve), and Load gives each one.
func scanLayout(s *plan.Scan) layout {
	sm := s.Table.ShardMap()
	if sm.Policy == storage.Replicated {
		return layout{repl: true}
	}
	for ci, c := range s.Cols {
		if c == sm.Key {
			return layout{cols: []int{ci}, part: sm}
		}
	}
	return layout{}
}

// projectLayout keeps the partition columns the projection passes through
// unchanged, at their new positions.
func projectLayout(p *plan.Project, in layout) layout {
	out := layout{repl: in.repl}
	for j, e := range p.Exprs {
		if cr, ok := e.(*plan.ColRef); ok && in.on(cr.Idx) {
			out.cols = append(out.cols, j)
		}
	}
	if len(out.cols) > 0 {
		out.part = in.part
	}
	return out
}

// groupLayout reports whether every group of g is complete on one node — its
// keys include a partition column, or the input is replicated — so that the
// node-local aggregation is already final, and how its output is spread.
func groupLayout(g *plan.GroupBy, in layout) (layout, bool) {
	if in.repl {
		return layout{repl: true}, true
	}
	out := layout{part: in.part}
	for i, k := range g.Keys {
		if cr, ok := k.(*plan.ColRef); ok && in.on(cr.Idx) {
			out.cols = append(out.cols, i)
		}
	}
	return out, len(out.cols) > 0
}

// colocated is the locality rule table: it reports whether a join whose sides
// are spread as l and r can run on every node over that node's share alone,
// and how its output is then spread.
//
//	repl ⋈ repl                         → replicated
//	part ⋈ repl, any join type          → like the left
//	repl ⋈ part, inner                  → like the right
//	part ⋈ part, a key pair lying on a  → like the left; inner joins also
//	  partition column of both sides,     carry the key on the right side's
//	  same partition function             partition columns
//
// Everything else needs an exchange first (colocate). A partition column
// the join does not output (its Out) drops out of the output's layout.
func colocated(j *plan.Join, l, r layout) (layout, bool) {
	inner := j.Type == plan.InnerJoin
	nLeft := len(j.Left.Schema())
	switch {
	case l.repl && r.repl:
		return layout{repl: true}, true
	case r.repl:
		return output(j, l), true
	case l.repl:
		// Semi/anti/left-outer probing of a replicated left on every node
		// would emit each left row once per node.
		if !inner {
			return layout{}, false
		}
		return output(j, r.shifted(nLeft)), true
	}
	for k := range j.LeftKeys {
		if l.on(j.LeftKeys[k]) && r.on(j.RightKeys[k]) && l.part.SameFunction(r.part) {
			if inner {
				l.cols = append(append([]int(nil), l.cols...), r.shifted(nLeft).cols...)
			}
			return output(j, l), true
		}
	}
	return layout{}, false
}

// output is l, a layout over the columns of j's left ++ right, as the layout
// of j's output.
func output(j *plan.Join, l layout) layout {
	if j.Out == nil {
		return l
	}
	out := layout{repl: l.repl}
	for i, c := range j.Out {
		if l.on(c) {
			out.cols = append(out.cols, i)
		}
	}
	if len(out.cols) > 0 {
		out.part = l.part
	}
	return out
}

// classify reports whether a subtree is node-local — every node can run its
// copy over its own shards (after exchanges) and the union of the per-node
// results is the global result — and, as far as it can be known without
// running anything, how the output is spread. It is pure: nothing executes
// until the whole subtree is known to localise. A join that needs an exchange
// localises too, but which side moves is decided by bytes at execution
// (colocate), so its layout is unknown here; a group-by is local only when a
// partition column known at this point is among its keys.
func classify(n plan.Node) (layout, bool) {
	switch n := n.(type) {
	case *plan.Scan:
		return scanLayout(n), true
	case *plan.Filter:
		return classify(n.Input)
	case *plan.Project:
		in, ok := classify(n.Input)
		return projectLayout(n, in), ok
	case *plan.GroupBy:
		if in, ok := classify(n.Input); ok {
			return groupLayout(n, in)
		}
	case *plan.Join:
		l, lok := classify(n.Left)
		r, rok := classify(n.Right)
		if lok && rok {
			// A join colocated rejects still localises, after an exchange whose
			// moving side is not chosen yet: nothing is known about its output
			// (colocated returns the zero layout).
			out, _ := colocated(n, l, r)
			return out, true
		}
	}
	return layout{}, false
}

// local reports whether classify accepts n.
func local(n plan.Node) bool { _, ok := classify(n); return ok }

// lift returns n with every semi or anti join whose right side, the
// sub-query, is not node-local moved back above the chain of inner joins (and
// semi or anti joins) it sits under. The binder places such a join directly
// on the input that owns its key (sqlparse pushSemi), which on a tray keeps it
// on the nodes only when its sub-query is node-local as well; otherwise
// classify rejects the join and every join above it, and the coordinator
// would gather all of their raw inputs. Lifted, the join sits over the joins'
// output, as when it was bound above the whole FROM tree, and runs at the
// coordinator over that output alone. Its key grows by the left sibling's
// width each time it climbs out of an inner join's right input; a semi or
// anti join keeps its left's schema, so nothing else moves. A tree with
// nothing to lift is returned as it is.
func lift(n plan.Node) (plan.Node, error) {
	kids := n.Children()
	changed := false
	for i, k := range kids {
		m, err := lift(k)
		if err != nil {
			return nil, err
		}
		kids[i], changed = m, changed || m != k
	}
	if changed {
		var err error
		if n, err = plan.WithChildren(n, kids...); err != nil {
			return nil, err
		}
	}
	j, ok := n.(*plan.Join)
	if !ok || (j.Type != plan.InnerJoin && !filtering(j)) {
		return n, nil
	}
	// up collects the lifted joins of each input, outermost first.
	var up []*plan.Join
	left, right := j.Left, j.Right
	for s := stranded(left); s != nil; s = stranded(left) {
		up, left = append(up, s), s.Left
	}
	if j.Type == plan.InnerJoin {
		for s := stranded(right); s != nil; s = stranded(right) {
			c := *s
			c.LeftKeys = make([]int, len(s.LeftKeys))
			for i, k := range s.LeftKeys {
				c.LeftKeys[i] = k + len(left.Schema())
			}
			up, right = append(up, &c), s.Left
		}
	}
	if len(up) == 0 {
		return n, nil
	}
	out, err := plan.WithChildren(j, left, right)
	for i := len(up) - 1; i >= 0 && err == nil; i-- {
		out, err = plan.WithChildren(up[i], out, up[i].Right)
	}
	return out, err
}

// filtering reports whether j is a semi or anti join: one that keeps or drops
// its left's rows and adds no column.
func filtering(j *plan.Join) bool { return j.Type == plan.SemiJoin || j.Type == plan.AntiJoin }

// stranded returns n when it is a semi or anti join whose sub-query is not
// node-local, and nil otherwise.
func stranded(n plan.Node) *plan.Join {
	if s, ok := n.(*plan.Join); ok && filtering(s) {
		if !local(s.Right) {
			return s
		}
	}
	return nil
}

// recipe is a node-local execution plan for one subtree: the tree every node
// compiles its copy of (possibly with relLeaf exchange inputs) plus the
// layout of the combined output.
type recipe struct {
	layout
	tree plan.Node
}

// localize builds the recipe of a subtree classify accepted, executing the
// exchanges its joins need on the way up — each exactly once, since the
// subtree is known to localise before the first one runs.
func (q *query) localize(n plan.Node) (*recipe, error) {
	switch n := n.(type) {
	case *plan.Scan:
		return &recipe{layout: scanLayout(n), tree: n}, nil

	case *plan.Join:
		l, err := q.localize(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := q.localize(n.Right)
		if err != nil {
			return nil, err
		}
		lay, ok := colocated(n, l.layout, r.layout)
		if !ok {
			if l, r, err = q.colocate(n, l, r); err != nil {
				return nil, err
			}
			if lay, ok = colocated(n, l.layout, r.layout); !ok {
				return nil, fmt.Errorf("cluster: join sides not co-located after their exchange")
			}
		}
		tree, err := plan.WithChildren(n, l.tree, r.tree)
		return &recipe{layout: lay, tree: tree}, err

	case *plan.Filter, *plan.Project, *plan.GroupBy:
		child, err := q.localize(n.Children()[0])
		if err != nil {
			return nil, err
		}
		lay := child.layout
		switch n := n.(type) {
		case *plan.Project:
			lay = projectLayout(n, child.layout)
		case *plan.GroupBy:
			var ok bool
			if lay, ok = groupLayout(n, child.layout); !ok {
				return nil, fmt.Errorf("cluster: group-by classified node-local has no partition column among its keys")
			}
		}
		tree, err := plan.WithChildren(n, child.tree)
		return &recipe{layout: lay, tree: tree}, err
	}
	return nil, fmt.Errorf("cluster: cannot localize plan node %T", n)
}

// placed wraps per-node relations (exchange outputs, or a side materialised
// in place) as a recipe of one relLeaf spread as lay. Every share carries the
// exchange's one column metadata.
func placed(parts []*ops.Relation, lay layout) *recipe {
	fs := make([]plan.Field, len(parts[0].Cols))
	for i, c := range parts[0].Cols {
		fs[i] = plan.Field{Name: c.Name, Type: c.Type, Dict: c.Dict}
	}
	return &recipe{layout: lay, tree: &relLeaf{parts: parts, fs: fs}}
}

// routed is a shuffle's output as a recipe: partitioned by part on keyCol.
func (q *query) routed(parts []*ops.Relation, rt *routes, keyCol int, part *storage.ShardMap, label string) (*recipe, error) {
	outs, err := q.deliver(parts, rt, label)
	if err != nil {
		return nil, err
	}
	return placed(outs, layout{cols: []int{keyCol}, part: part}), nil
}

// broadcasted is a broadcast's output as a recipe: the one full relation,
// bound to every node.
func (q *query) broadcasted(parts []*ops.Relation, label string) (*recipe, error) {
	full, err := q.broadcast(parts, label)
	if err != nil {
		return nil, err
	}
	all := make([]*ops.Relation, q.nodes())
	for i := range all {
		all[i] = full
	}
	return placed(all, layout{repl: true}), nil
}

// alignedKey returns the index of a join key that is one of the recipe's
// partition columns — the side already lives on that key — or -1.
func alignedKey(rec *recipe, keys []int) int {
	for k, c := range keys {
		if rec.on(c) {
			return k
		}
	}
	return -1
}

// treeBytes estimates the wire size of a side that is still a tree, over
// all nodes, from its compiled copies (shard statistics differ, so each node
// has its own): the compiler's output rows of each — an exchange output
// spliced into it counts its exact rows — at the 8-byte wire width.
func treeBytes(copies []*qcomp.Compiled, cols int) int64 {
	var rows int64
	for _, c := range copies {
		rows += c.Estimate().OutputRows
	}
	return rows * 8 * int64(cols)
}

// partsBytes is the exact wire size of a materialised side.
func partsBytes(parts []*ops.Relation) int64 {
	var b int64
	for _, rel := range parts {
		b += relBytes(rel)
	}
	return b
}

// colocate moves data so that a join colocated rejected becomes node-local,
// returning the two sides as they are afterwards; colocated's rules then
// apply to them (a shuffled side is co-partitioned, a broadcast side
// replicated). Whatever moves is chosen by the bytes it puts on the link:
//
//	repl ⋈ part, semi/anti/left-outer → broadcast the right and let every
//	    node probe its own slice of the left (sliceModulo): the copies are
//	    already everywhere, so slicing moves nothing
//	part ⋈ part, one side on a join key → shuffle the other side to it
//	    (align), or broadcast the side that is, when that is fewer bytes
//	part ⋈ part, neither on a join key  → shuffle both by the first key
//	    pair, or broadcast the smaller side when that is fewer bytes
//
// Broadcasting the left is for inner joins only: any other join type would
// emit a left row once per node. A shuffle is priced at the rows that
// actually change node (route), a broadcast at bytes·(n−1).
func (q *query) colocate(j *plan.Join, l, r *recipe) (*recipe, *recipe, error) {
	n := q.nodes()
	inner := j.Type == plan.InnerJoin
	if l.repl {
		rparts, err := q.runNodes(r.tree, "broadcast input", false)
		if err != nil {
			return nil, nil, err
		}
		full, err := q.broadcasted(rparts, "right (build side)")
		if err != nil {
			return nil, nil, err
		}
		lparts, err := q.runNodes(l.tree, "replicated probe", false)
		if err != nil {
			return nil, nil, err
		}
		for i, rel := range lparts {
			lparts[i] = sliceModulo(rel, i, n)
		}
		return placed(lparts, layout{}), full, nil
	}
	if k := alignedKey(l, j.LeftKeys); k >= 0 {
		r, l, err := q.align(r, l, j.RightKeys[k], inner, fmt.Sprintf("right by key[%d]", k), "left (small side)")
		return l, r, err
	}
	if k := alignedKey(r, j.RightKeys); k >= 0 {
		return q.align(l, r, j.LeftKeys[k], true, fmt.Sprintf("left by key[%d]", k), "right (small side)")
	}

	lparts, err := q.runNodes(l.tree, "exchange input", false)
	if err != nil {
		return nil, nil, err
	}
	rparts, err := q.runNodes(r.tree, "exchange input", false)
	if err != nil {
		return nil, nil, err
	}
	hash := &storage.ShardMap{Policy: storage.HashSharded, Key: 0, Nodes: n}
	lroutes, err := q.route(lparts, j.LeftKeys[0], hash)
	if err != nil {
		return nil, nil, err
	}
	rroutes, err := q.route(rparts, j.RightKeys[0], hash)
	if err != nil {
		return nil, nil, err
	}
	shuffleCost := lroutes.crossing*int64(exchangeRowBytes(lparts[0])) + rroutes.crossing*int64(exchangeRowBytes(rparts[0]))
	bcastLCost, bcastRCost := partsBytes(lparts)*int64(n-1), partsBytes(rparts)*int64(n-1)
	switch {
	case bcastRCost < shuffleCost && bcastRCost <= bcastLCost:
		r, err = q.broadcasted(rparts, "right (small side)")
		return placed(lparts, l.layout), r, err
	case inner && bcastLCost < shuffleCost:
		l, err = q.broadcasted(lparts, "left (small side)")
		return l, placed(rparts, r.layout), err
	}
	if l, err = q.routed(lparts, lroutes, j.LeftKeys[0], hash, "left by join key"); err != nil {
		return nil, nil, err
	}
	r, err = q.routed(rparts, rroutes, j.RightKeys[0], hash, "right by join key")
	return l, r, err
}

// align co-locates a side that does not live on its join key (mov) with one
// that does (fix): it materialises mov, which has to happen whichever side
// moves, and either shuffles it to fix's partition function or — when
// allowed, and fix is fewer bytes on the link — broadcasts fix to it instead.
// fix is still a tree: its node copies are compiled to price it, run only
// when that estimate wins, and broadcast only when their exact size then does
// too. It returns mov and fix as they are afterwards.
func (q *query) align(mov, fix *recipe, movKey int, mayBroadcast bool, shuffleLabel, broadcastLabel string) (*recipe, *recipe, error) {
	parts, err := q.runNodes(mov.tree, "exchange input", false)
	if err != nil {
		return nil, nil, err
	}
	rt, err := q.route(parts, movKey, fix.part)
	if err != nil {
		return nil, nil, err
	}
	shuffleCost := rt.crossing * int64(exchangeRowBytes(parts[0]))
	if fanout := int64(q.nodes() - 1); mayBroadcast {
		copies, err := q.compile(fix.tree, false)
		if err != nil {
			return nil, nil, err
		}
		if treeBytes(copies, len(fix.tree.Schema()))*fanout < shuffleCost {
			fparts, err := q.run(copies, "broadcast input")
			if err != nil {
				return nil, nil, err
			}
			// The estimate only decided to look: the exact size decides.
			if partsBytes(fparts)*fanout < shuffleCost {
				fix, err = q.broadcasted(fparts, broadcastLabel)
				return placed(parts, mov.layout), fix, err
			}
			fix = placed(fparts, fix.layout)
		}
	}
	mov, err = q.routed(parts, rt, movKey, fix.part, fmt.Sprintf("%s to %s", shuffleLabel, fix.part.Policy))
	return mov, fix, err
}
