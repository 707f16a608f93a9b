package ops

import (
	"rapid/internal/plan"
	"rapid/internal/storage"
)

// ZoneReject reports whether predicate p provably matches no row of a tile
// whose per-column zones are served by zone (ok=false means "no usable zone
// for that column" and the affected leaf cannot reject). The analysis is
// conservative in exactly one direction: a true return is a proof of
// emptiness over the encoded domain — predicates evaluate over the same
// encoded values the zones summarize — while false only means "cannot rule
// the tile out". Columns are addressed in the scanned tile layout, the same
// indices the predicate's Eval uses.
func ZoneReject(p Predicate, zone func(col int) (storage.Zone, bool)) bool {
	switch p := p.(type) {
	case *ConstCmp:
		z, ok := zone(p.Col)
		if !ok {
			return false
		}
		return cmpRangeEmpty(z.Min, z.Max, p.Op, p.Val)
	case *Between:
		z, ok := zone(p.Col)
		if !ok {
			return false
		}
		return z.Max < p.Lo || z.Min > p.Hi
	case *InSet:
		z, ok := zone(p.Col)
		if !ok || p.Set == nil {
			return false
		}
		// Dictionary codes are dense non-negative ints; the tile can match
		// only if some member code falls inside [Min, Max].
		lo := z.Min
		if lo < 0 {
			lo = 0
		}
		if lo >= int64(p.Set.Len()) {
			return true
		}
		next := p.Set.NextSet(int(lo))
		return next < 0 || int64(next) > z.Max
	case *ColCmp:
		za, oka := zone(p.A)
		zb, okb := zone(p.B)
		if !oka || !okb {
			return false
		}
		switch p.Op {
		case plan.LT:
			return za.Min >= zb.Max
		case plan.LE:
			return za.Min > zb.Max
		case plan.GT:
			return za.Max <= zb.Min
		case plan.GE:
			return za.Max < zb.Min
		case plan.EQ:
			return za.Max < zb.Min || za.Min > zb.Max
		case plan.NE:
			return za.Min == za.Max && zb.Min == zb.Max && za.Min == zb.Min
		}
		return false
	case *And:
		for _, sub := range p.Preds {
			if ZoneReject(sub, zone) {
				return true
			}
		}
		return false
	case *Or:
		if len(p.Preds) == 0 {
			return false
		}
		for _, sub := range p.Preds {
			if !ZoneReject(sub, zone) {
				return false
			}
		}
		return true
	case *Not:
		// NOT over an always-true branch matches nothing (the empty-IN-list
		// rewrite); anything finer would need an "accepts every row" proof.
		switch p.P.(type) {
		case TruePred, *TruePred:
			return true
		}
		return false
	default:
		// TruePred, ExprCmp and unknown nodes: no zone information applies.
		return false
	}
}

// cmpRangeEmpty reports whether {v in [min, max] : v op val} is empty.
func cmpRangeEmpty(min, max int64, op plan.CmpOp, val int64) bool {
	switch op {
	case plan.EQ:
		return val < min || val > max
	case plan.NE:
		return min == max && min == val
	case plan.LT:
		return min >= val
	case plan.LE:
		return min > val
	case plan.GT:
		return max <= val
	case plan.GE:
		return max < val
	}
	return false
}
