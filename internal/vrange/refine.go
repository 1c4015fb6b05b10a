package vrange

import (
	"vrp/internal/ir"
)

// Refine evaluates an assertion (π-instruction): the value of `x` given
// that `x rel other` holds on this path. Each range is trimmed against the
// constraint and the surviving probability mass is renormalized — the
// conditional distribution of x given the branch outcome.
//
// When x is ⊥ but the constraint pins it to a single value (x == k), the
// constraint itself supplies the range: this is how equality tests recover
// information even for loads from memory.
func (c *Calc) Refine(v Value, rel ir.BinOp, other Value) Value {
	if other.IsTop() {
		return TopValue() // constraint operand not yet evaluated
	}
	if v.IsTop() {
		return TopValue()
	}
	if v.IsInfeasible() || other.IsInfeasible() {
		return Infeasible()
	}
	if v.IsBottom() {
		if rel == ir.BinEq && other.Kind() == Set && len(other.Ranges) == 1 && other.Ranges[0].IsPoint() {
			if !c.Cfg.Symbolic && !other.Ranges[0].IsNum() {
				return BottomValue()
			}
			return FromRanges(Point(1, other.Ranges[0].Lo))
		}
		return BottomValue()
	}
	if other.IsBottom() {
		return v // no usable constraint; the π passes the parent through
	}

	// Equality against a single point: the result is exactly that point
	// (provided it is not excluded), the strongest refinement.
	if rel == ir.BinEq && len(other.Ranges) == 1 && other.Ranges[0].IsPoint() {
		pt := other.Ranges[0].Lo
		if !c.Cfg.Symbolic && !pt.IsNum() {
			return BottomValue()
		}
		feasible := false
		for _, r := range v.Ranges {
			c.SubOps++
			f, ok := c.fracContains(r, pt)
			if !ok || f > 0 {
				feasible = true
				break
			}
		}
		if !feasible {
			return Infeasible()
		}
		return FromRanges(Point(1, pt))
	}

	hullLo, hullHi, hullOK := c.hull(other)

	out := c.buf1[:0]
	for _, r := range v.Ranges {
		c.SubOps++
		switch rel {
		case ir.BinLt, ir.BinLe:
			if !hullOK {
				out = append(out, r)
				continue
			}
			nr, frac := c.trimBelow(r, hullHi, rel == ir.BinLt)
			if frac > 0 {
				nr.Prob = r.Prob * frac
				out = append(out, nr)
			}
		case ir.BinGt, ir.BinGe:
			if !hullOK {
				out = append(out, r)
				continue
			}
			nr, frac := c.trimAbove(r, hullLo, rel == ir.BinGt)
			if frac > 0 {
				nr.Prob = r.Prob * frac
				out = append(out, nr)
			}
		case ir.BinEq:
			if !hullOK {
				out = append(out, r)
				continue
			}
			nr, f1 := c.trimBelow(r, hullHi, false)
			if f1 <= 0 {
				continue
			}
			nr2, f2 := c.trimAbove(nr, hullLo, false)
			if f2 <= 0 {
				continue
			}
			nr2.Prob = r.Prob * f1 * f2
			out = append(out, nr2)
		case ir.BinNe:
			out = c.excludePoint(out, r, other)
		default:
			out = append(out, r)
		}
	}
	c.buf1 = out
	if len(out) == 0 {
		return Infeasible()
	}
	return c.Canonicalize(Value{kind: Set, Ranges: out})
}

// hull returns the smallest and largest bounds of a Set value when its
// ranges are mutually comparable.
func (c *Calc) hull(v Value) (lo, hi Bound, ok bool) {
	if v.Kind() != Set || len(v.Ranges) == 0 {
		return Bound{}, Bound{}, false
	}
	lo, hi = v.Ranges[0].Lo, v.Ranges[0].Hi
	for _, r := range v.Ranges[1:] {
		var okMin, okMax bool
		lo, okMin = minBound(lo, r.Lo)
		hi, okMax = maxBound(hi, r.Hi)
		if !okMin || !okMax {
			return Bound{}, Bound{}, false
		}
	}
	return lo, hi, true
}

// trimBelow restricts r to values < b (or ≤ b when strict is false),
// returning the trimmed range and the fraction of values kept. A fraction
// of 1 with an unchanged range means the constraint was uninformative or
// already satisfied.
func (c *Calc) trimBelow(r Range, b Bound, strict bool) (Range, float64) {
	limit := b
	if !strict {
		nb, ok := b.addConst(1)
		if !ok {
			return r, 1
		}
		limit = nb
	}
	s := r.Stride
	if s <= 0 {
		s = 1
	}
	total, totalExact := c.count(r)
	if d, ok := limit.diff(r.Lo); ok {
		if d <= 0 {
			return r, 0
		}
		sat := float64(int64((d + s - 1) / s)) // ceil(d/s)
		if totalExact && sat >= total {
			return r, 1
		}
		newHi, okH := r.Lo.addConst((int64(sat) - 1) * s)
		if !okH {
			return r, 1
		}
		nr := r
		nr.Hi = newHi
		if nr.Lo == nr.Hi {
			nr.Stride = 0
		}
		return nr, c.fracOf(sat, total, totalExact)
	}
	if d, ok := limit.diff(r.Hi); ok {
		if d > 0 {
			return r, 1
		}
		notSat := float64(int64(-d)/s + 1)
		if totalExact && notSat >= total {
			return r, 0
		}
		newHi, okH := r.Hi.addConst(-int64(notSat) * s)
		if !okH {
			return r, 1
		}
		nr := r
		nr.Hi = newHi
		if lodiff, okd := nr.Hi.diff(nr.Lo); okd && lodiff == 0 {
			nr.Stride = 0
		}
		// The kept fraction comes from an estimated count when the range
		// extent is symbolic; it must then stay strictly inside (0,1) —
		// an estimate may not prove a path infeasible (or certain).
		return nr, c.fracOf(total-notSat, total, totalExact)
	}
	return r, 1
}

// trimAbove restricts r to values > b (or ≥ b when strict is false).
func (c *Calc) trimAbove(r Range, b Bound, strict bool) (Range, float64) {
	limit := b
	if strict {
		nb, ok := b.addConst(1)
		if !ok {
			return r, 1
		}
		limit = nb
	}
	// Keep values ≥ limit.
	s := r.Stride
	if s <= 0 {
		s = 1
	}
	total, totalExact := c.count(r)
	if d, ok := limit.diff(r.Hi); ok {
		if d > 0 {
			return r, 0
		}
		sat := float64(int64(-d)/s + 1) // values from the top that are ≥ limit
		if totalExact && sat >= total {
			return r, 1
		}
		newLo, okL := r.Hi.addConst(-(int64(sat) - 1) * s)
		if !okL {
			return r, 1
		}
		nr := r
		nr.Lo = newLo
		if nr.Lo == nr.Hi {
			nr.Stride = 0
		}
		return nr, c.fracOf(sat, total, totalExact)
	}
	if d, ok := limit.diff(r.Lo); ok {
		if d <= 0 {
			return r, 1
		}
		notSat := float64(int64((d + s - 1) / s)) // values below the limit
		if totalExact && notSat >= total {
			return r, 0
		}
		newLo, okL := r.Lo.addConst(int64(notSat) * s)
		if !okL {
			return r, 1
		}
		nr := r
		nr.Lo = newLo
		if hidiff, okd := nr.Hi.diff(nr.Lo); okd && hidiff == 0 {
			nr.Stride = 0
		}
		return nr, c.fracOf(total-notSat, total, totalExact)
	}
	return r, 1
}

// excludePoint implements `x != k` refinement, appending to dst: removes
// the point from the range, splitting interior exclusions when the
// constant is on the stride grid (the range cap in Canonicalize bounds the
// growth).
func (c *Calc) excludePoint(dst []Range, r Range, other Value) []Range {
	if other.Kind() != Set || len(other.Ranges) != 1 || !other.Ranges[0].IsPoint() {
		return append(dst, r)
	}
	k := other.Ranges[0].Lo
	f, ok := c.fracContains(r, k)
	if !ok || f == 0 {
		return append(dst, r)
	}
	total, _ := c.count(r)
	keep := r.Prob * (1 - 1/total)
	if keep < minProb {
		return dst
	}
	s := r.Stride
	if s <= 0 {
		s = 1
	}
	if d, okd := k.diff(r.Lo); okd && d == 0 {
		// Exclude the low endpoint.
		nl, okA := r.Lo.addConst(s)
		if !okA {
			return append(dst, r)
		}
		nr := r
		nr.Lo = nl
		nr.Prob = keep
		if ddd, ok2 := nr.Hi.diff(nr.Lo); ok2 && ddd == 0 {
			nr.Stride = 0
		}
		return append(dst, nr)
	}
	if d, okd := k.diff(r.Hi); okd && d == 0 {
		nh, okA := r.Hi.addConst(-s)
		if !okA {
			return append(dst, r)
		}
		nr := r
		nr.Hi = nh
		nr.Prob = keep
		if ddd, ok2 := nr.Hi.diff(nr.Lo); ok2 && ddd == 0 {
			nr.Stride = 0
		}
		return append(dst, nr)
	}
	// Interior exclusion: split when fully numeric.
	if r.IsNum() && k.IsNum() {
		loCnt := float64(0)
		if d, okd := k.diff(r.Lo); okd {
			loCnt = float64(d / s) // values strictly below k
		}
		hiCnt := total - loCnt - 1
		left := Range{Prob: r.Prob * loCnt / total, Lo: r.Lo, Hi: Num(k.Const - s), Stride: r.Stride}
		right := Range{Prob: r.Prob * hiCnt / total, Lo: Num(k.Const + s), Hi: r.Hi, Stride: r.Stride}
		if left.Lo == left.Hi {
			left.Stride = 0
		}
		if right.Lo == right.Hi {
			right.Stride = 0
		}
		if loCnt > 0 {
			dst = append(dst, left)
		}
		if hiCnt > 0 {
			dst = append(dst, right)
		}
		return dst
	}
	// Cannot reshape: keep the range, scale the probability.
	nr := r
	nr.Prob = keep
	return append(dst, nr)
}
