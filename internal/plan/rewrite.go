package plan

import "fmt"

// WithChildren returns a copy of an operator over new children: a fresh node
// struct that shares n's predicates, expressions and key slices — they are
// immutable after binding, which is what lets one bound tree be re-stamped
// per snapshot (CloneAtSCN) and bound per tray node (cluster) without copying
// them. It is the one place that knows how each operator holds its inputs.
func WithChildren(n Node, kids ...Node) (Node, error) {
	if len(kids) == 0 || len(kids) != len(n.Children()) {
		return nil, fmt.Errorf("plan: cannot rebuild %T over %d children", n, len(kids))
	}
	switch v := n.(type) {
	case *Filter:
		return over(v, func(c *Filter) { c.Input = kids[0] }), nil
	case *Project:
		return over(v, func(c *Project) { c.Input = kids[0] }), nil
	case *GroupBy:
		return over(v, func(c *GroupBy) { c.Input = kids[0] }), nil
	case *Sort:
		return over(v, func(c *Sort) { c.Input = kids[0] }), nil
	case *Limit:
		return over(v, func(c *Limit) { c.Input = kids[0] }), nil
	case *Window:
		return over(v, func(c *Window) { c.Input = kids[0] }), nil
	case *Join:
		return over(v, func(c *Join) { c.Left, c.Right = kids[0], kids[1] }), nil
	case *SetOp:
		return over(v, func(c *SetOp) { c.Left, c.Right = kids[0], kids[1] }), nil
	}
	return nil, fmt.Errorf("plan: cannot rebuild unknown node %T", n)
}

// over returns a copy of *v with its inputs set.
func over[T any](v *T, set func(*T)) *T {
	c := *v
	set(&c)
	return &c
}

// MapLeaves rebuilds a tree bottom-up with leaf(l) in place of every leaf l
// (a node without children: a Scan, or a leaf type of the caller's). A
// subtree none of whose leaves changed is returned as it is, so a leaf
// function that returns its argument visits the leaves and builds nothing.
func MapLeaves(n Node, leaf func(Node) (Node, error)) (Node, error) {
	kids := n.Children() // a fresh slice, by every implementation
	if len(kids) == 0 {
		return leaf(n)
	}
	changed := false
	for i, k := range kids {
		m, err := MapLeaves(k, leaf)
		if err != nil {
			return nil, err
		}
		kids[i], changed = m, changed || m != k
	}
	if !changed {
		return n, nil
	}
	return WithChildren(n, kids...)
}

// CloneAtSCN returns a copy of a bound plan tree with every Scan re-stamped
// to read at the given SCN. No engine path calls it: it is kept only for the
// benchmark harness's per-layer timing (benchmark/layers.go), which measures
// re-stamping a bound plan beside parse and bind.
func CloneAtSCN(n Node, scn uint64) (Node, error) {
	return MapLeaves(n, func(l Node) (Node, error) {
		s, ok := l.(*Scan)
		if !ok {
			return nil, fmt.Errorf("plan: CloneAtSCN: unknown node %T", l)
		}
		return NewScan(s.Table, scn, s.Cols), nil
	})
}
