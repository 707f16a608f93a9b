package plan

import "fmt"

// CloneAtSCN returns a copy of a bound plan tree with every Scan re-stamped
// to read at the given SCN. Node structs are freshly allocated but
// predicates, expressions and key slices are shared with the original —
// they are immutable after binding (the tray's per-node rewrite relies on
// the same invariant, see cluster.rewriteForNode). The plan cache uses this
// to serve a cached bound skeleton to a new query without re-parsing or
// re-binding; the compiler still runs, so costing and zone pruning see the
// fresh snapshot.
func CloneAtSCN(n Node, scn uint64) (Node, error) {
	switch v := n.(type) {
	case *Scan:
		return NewScan(v.Table, scn, v.Cols), nil
	case *Filter:
		in, err := CloneAtSCN(v.Input, scn)
		if err != nil {
			return nil, err
		}
		return &Filter{Input: in, Pred: v.Pred}, nil
	case *Project:
		in, err := CloneAtSCN(v.Input, scn)
		if err != nil {
			return nil, err
		}
		return &Project{Input: in, Exprs: v.Exprs, Names: v.Names}, nil
	case *Join:
		l, err := CloneAtSCN(v.Left, scn)
		if err != nil {
			return nil, err
		}
		r, err := CloneAtSCN(v.Right, scn)
		if err != nil {
			return nil, err
		}
		return &Join{Type: v.Type, Left: l, Right: r, LeftKeys: v.LeftKeys, RightKeys: v.RightKeys}, nil
	case *GroupBy:
		in, err := CloneAtSCN(v.Input, scn)
		if err != nil {
			return nil, err
		}
		return &GroupBy{Input: in, Keys: v.Keys, Aggs: v.Aggs}, nil
	case *Sort:
		in, err := CloneAtSCN(v.Input, scn)
		if err != nil {
			return nil, err
		}
		return &Sort{Input: in, Keys: v.Keys}, nil
	case *Limit:
		in, err := CloneAtSCN(v.Input, scn)
		if err != nil {
			return nil, err
		}
		return &Limit{Input: in, K: v.K}, nil
	case *SetOp:
		l, err := CloneAtSCN(v.Left, scn)
		if err != nil {
			return nil, err
		}
		r, err := CloneAtSCN(v.Right, scn)
		if err != nil {
			return nil, err
		}
		return &SetOp{Kind: v.Kind, Left: l, Right: r}, nil
	case *Window:
		in, err := CloneAtSCN(v.Input, scn)
		if err != nil {
			return nil, err
		}
		return &Window{Input: in, Func: v.Func, PartitionBy: v.PartitionBy,
			OrderBy: v.OrderBy, ValueCol: v.ValueCol, Name: v.Name}, nil
	default:
		return nil, fmt.Errorf("plan: CloneAtSCN: unknown node %T", n)
	}
}
