// Package vrange implements the weighted value range representation at the
// heart of the paper (§3.4): the value of a variable is a set of ranges
//
//	{ P[L:U:S], ... }
//
// where P is the probability of the range applying at runtime, L and U are
// the bounds, and S the arithmetic stride. An even distribution is assumed
// within each range. Bounds may be numeric or symbolic: `SSA variable +
// constant`, with a NULL (ir.None) variable component for pure numbers —
// exactly the representation of §3.4. Operations and comparisons between
// symbolic bounds are only meaningful between values sharing a single
// common ancestor variable; anything richer collapses to bottom, trading
// accuracy for the linear-time behaviour the paper reports.
package vrange

import (
	"fmt"
	"math"
	"strings"

	"vrp/internal/ir"
)

// Kind is the lattice level of a Value.
type Kind int

// Lattice levels. Top is the optimistic initial assignment; Set carries
// weighted ranges; Bottom means statically unpredictable.
const (
	Top Kind = iota
	Set
	Bottom
)

// Bound is one endpoint of a range: Var+Const, with Var == ir.None for
// pure numbers (the paper's "virtual register 0" NULL convention).
type Bound struct {
	Var   ir.Reg
	Const int64
}

// Num returns a numeric bound.
func Num(c int64) Bound { return Bound{Var: ir.None, Const: c} }

// Sym returns a symbolic bound v+c.
func Sym(v ir.Reg, c int64) Bound { return Bound{Var: v, Const: c} }

// IsNum reports whether the bound is purely numeric.
func (b Bound) IsNum() bool { return b.Var == ir.None }

func (b Bound) String() string {
	if b.IsNum() {
		return fmt.Sprintf("%d", b.Const)
	}
	if b.Const == 0 {
		return fmt.Sprintf("r%d", b.Var)
	}
	return fmt.Sprintf("r%d%+d", b.Var, b.Const)
}

// format renders the bound using a register-name resolver.
func (b Bound) format(name func(ir.Reg) string) string {
	if b.IsNum() {
		return fmt.Sprintf("%d", b.Const)
	}
	n := name(b.Var)
	if b.Const == 0 {
		return n
	}
	return fmt.Sprintf("%s%+d", n, b.Const)
}

// AddConst returns the bound shifted by a constant, with overflow
// checking; exported for sibling analysis packages.
func (b Bound) AddConst(c int64) (Bound, bool) { return b.addConst(c) }

// addConst returns the bound shifted by a constant, with overflow checking.
func (b Bound) addConst(c int64) (Bound, bool) {
	s, ok := addOvf(b.Const, c)
	if !ok {
		return Bound{}, false
	}
	return Bound{Var: b.Var, Const: s}, true
}

// add adds two bounds; fails when both are symbolic (the representation
// handles a single ancestor variable only).
func (b Bound) add(o Bound) (Bound, bool) {
	if !b.IsNum() && !o.IsNum() {
		return Bound{}, false
	}
	v := b.Var
	if v == ir.None {
		v = o.Var
	}
	s, ok := addOvf(b.Const, o.Const)
	if !ok {
		return Bound{}, false
	}
	return Bound{Var: v, Const: s}, true
}

// sub subtracts o from b; the symbolic parts must cancel or o must be
// numeric.
func (b Bound) sub(o Bound) (Bound, bool) {
	if b.Var == o.Var { // both numeric, or same ancestor: cancels
		d, ok := subOvf(b.Const, o.Const)
		if !ok {
			return Bound{}, false
		}
		return Num(d), true
	}
	if o.IsNum() {
		d, ok := subOvf(b.Const, o.Const)
		if !ok {
			return Bound{}, false
		}
		return Bound{Var: b.Var, Const: d}, true
	}
	return Bound{}, false
}

// Diff returns b-o as a number when the symbolic parts cancel; it is the
// exported form of diff for sibling analysis packages.
func (b Bound) Diff(o Bound) (int64, bool) { return b.diff(o) }

// diff returns b-o as a number when the symbolic parts cancel.
func (b Bound) diff(o Bound) (int64, bool) {
	if b.Var != o.Var {
		return 0, false
	}
	return subOvf(b.Const, o.Const)
}

// cmp compares two bounds when possible: -1, 0, +1.
func (b Bound) cmp(o Bound) (int, bool) {
	d, ok := b.diff(o)
	if !ok {
		return 0, false
	}
	switch {
	case d < 0:
		return -1, true
	case d > 0:
		return 1, true
	}
	return 0, true
}

// Range is a single weighted range P[Lo:Hi:Stride]. Stride 0 means a
// single value (Lo == Hi). Invariant: Lo <= Hi whenever comparable, and
// Hi-Lo is a multiple of Stride whenever numeric.
type Range struct {
	Prob   float64
	Lo, Hi Bound
	Stride int64
}

// Point returns a single-value range with probability p.
func Point(p float64, b Bound) Range { return Range{Prob: p, Lo: b, Hi: b, Stride: 0} }

// IsPoint reports whether the range holds exactly one value.
func (r Range) IsPoint() bool { return r.Lo == r.Hi }

// IsNum reports whether both bounds are numeric.
func (r Range) IsNum() bool { return r.Lo.IsNum() && r.Hi.IsNum() }

// Count returns the number of values in the range if it is numeric.
func (r Range) Count() (int64, bool) {
	if !r.IsNum() {
		if r.IsPoint() {
			return 1, true
		}
		return 0, false
	}
	if r.IsPoint() {
		return 1, true
	}
	s := r.Stride
	if s <= 0 {
		s = 1
	}
	return (r.Hi.Const-r.Lo.Const)/s + 1, true
}

func (r Range) String() string {
	return fmt.Sprintf("%s[%s:%s:%d]", formatProb(r.Prob), r.Lo, r.Hi, r.Stride)
}

func (r Range) format(name func(ir.Reg) string) string {
	return fmt.Sprintf("%s[%s:%s:%d]", formatProb(r.Prob), r.Lo.format(name), r.Hi.format(name), r.Stride)
}

func formatProb(p float64) string {
	s := fmt.Sprintf("%.4g", p)
	return s
}

// Value is a lattice element: ⊤, a set of weighted ranges, or ⊥. A Set
// with no ranges is infeasible (the value of a contradiction — code proven
// unreachable under its path condition).
type Value struct {
	kind   Kind
	Ranges []Range
}

// TopValue is the optimistic initial assignment.
func TopValue() Value { return Value{kind: Top} }

// BottomValue is the unpredictable assignment.
func BottomValue() Value { return Value{kind: Bottom} }

// Infeasible is the empty set: no runtime value satisfies the constraints.
func Infeasible() Value { return Value{kind: Set} }

// Const returns the single-constant value {1[c:c:0]}.
func Const(c int64) Value {
	return Value{kind: Set, Ranges: []Range{Point(1, Num(c))}}
}

// Symbolic returns {1[v:v:0]}: exactly the value of SSA variable v. A copy
// has this range relative to its source, which is how copy propagation is
// subsumed (§6).
func Symbolic(v ir.Reg) Value {
	return Value{kind: Set, Ranges: []Range{Point(1, Sym(v, 0))}}
}

// FromRanges builds a Set value (caller guarantees probabilities sum to
// ~1; Canonicalize enforces it).
func FromRanges(rs ...Range) Value {
	return Value{kind: Set, Ranges: rs}
}

// Kind returns the lattice level.
func (v Value) Kind() Kind { return v.kind }

// IsTop reports v == ⊤.
func (v Value) IsTop() bool { return v.kind == Top }

// DemoteTop lowers ⊤ to ⊥ and leaves every other value unchanged. An
// optimistic ⊤ is only a sound answer at a fixed point (Wegman–Zadeck);
// when a fixpoint is cut short — MaxPasses exhausted, engine degraded —
// the surviving ⊤s must be reported as unpredictable instead.
func DemoteTop(v Value) Value {
	if v.kind == Top {
		return BottomValue()
	}
	return v
}

// IsBottom reports v == ⊥.
func (v Value) IsBottom() bool { return v.kind == Bottom }

// IsInfeasible reports the empty range set.
func (v Value) IsInfeasible() bool { return v.kind == Set && len(v.Ranges) == 0 }

// AsConst returns (c, true) if v is exactly one numeric constant.
func (v Value) AsConst() (int64, bool) {
	if v.kind == Set && len(v.Ranges) == 1 && v.Ranges[0].IsPoint() && v.Ranges[0].IsNum() {
		return v.Ranges[0].Lo.Const, true
	}
	return 0, false
}

// AsCopyOf returns (src, true) if v is exactly the value of another SSA
// variable (a pure copy, §6's copy-propagation subsumption).
func (v Value) AsCopyOf() (ir.Reg, bool) {
	if v.kind == Set && len(v.Ranges) == 1 && v.Ranges[0].IsPoint() &&
		!v.Ranges[0].Lo.IsNum() && v.Ranges[0].Lo.Const == 0 {
		return v.Ranges[0].Lo.Var, true
	}
	return ir.None, false
}

func (v Value) String() string {
	return v.Format(func(r ir.Reg) string { return fmt.Sprintf("r%d", r) })
}

// Format renders the value with a register-name resolver, in the paper's
// `{ P[L:U:S] ... }` notation.
func (v Value) Format(name func(ir.Reg) string) string {
	switch v.kind {
	case Top:
		return "⊤"
	case Bottom:
		return "⊥"
	}
	if len(v.Ranges) == 0 {
		return "{}"
	}
	var b strings.Builder
	b.WriteString("{ ")
	for i, r := range v.Ranges {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(r.format(name))
	}
	b.WriteString(" }")
	return b.String()
}

// probEq is the tolerance for probability comparison in fixpoint tests.
const probEq = 1e-9

// Equal reports whether two values are identical up to probability
// tolerance; the propagation engine uses this as its change detector.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	if v.kind != Set {
		return true
	}
	if len(v.Ranges) != len(o.Ranges) {
		return false
	}
	for i := range v.Ranges {
		a, b := v.Ranges[i], o.Ranges[i]
		if a.Lo != b.Lo || a.Hi != b.Hi || a.Stride != b.Stride {
			return false
		}
		if math.Abs(a.Prob-b.Prob) > probEq {
			return false
		}
	}
	return true
}

// SameShape reports whether two values have identical structure — kind,
// bounds and strides — ignoring probabilities. The propagation engine's
// widening budget counts only structural changes: probability jitter from
// frequency convergence is benign and settles on its own, whereas a value
// whose bounds keep moving is enumerating a loop.
func (v Value) SameShape(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	if v.kind != Set {
		return true
	}
	if len(v.Ranges) != len(o.Ranges) {
		return false
	}
	for i := range v.Ranges {
		a, b := v.Ranges[i], o.Ranges[i]
		if a.Lo != b.Lo || a.Hi != b.Hi || a.Stride != b.Stride {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------- helpers

func addOvf(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func subOvf(a, b int64) (int64, bool) {
	d := a - b
	if (a >= 0 && b < 0 && d < 0) || (a < 0 && b > 0 && d >= 0) {
		return 0, false
	}
	return d, true
}

func mulOvf(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func minI(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
