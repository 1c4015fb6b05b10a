package vrange

import (
	"math"
	"math/rand"
	"testing"
)

// checkFracLt compares fracLtClosed against the enumeration it replaces,
// bit for bit, on whichever branch fracLtNum takes for the pair. It
// reports whether the closed form covered the pair (false: outside its
// guard, or both ranges beyond ExactPairLimit).
func checkFracLt(t testing.TB, c *Calc, x, y Range) (closed bool) {
	t.Helper()
	nx, _ := x.Count()
	ny, _ := y.Count()
	lim := c.Cfg.ExactPairLimit
	if nx > lim && ny > lim {
		return false
	}
	walkX := nx <= lim
	want := c.fracLtEnum(x, y, nx, ny, walkX)
	if got := c.fracLtNum(x, y); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("fracLtNum(%v, %v) = %v (%#x), enumeration %v (%#x)",
			x, y, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	got, ok := fracLtClosed(x, y, nx, ny, walkX)
	if ok && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("fracLtClosed(%v, %v) = %v (%#x), enumeration %v (%#x)",
			x, y, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return ok
}

// randShapedPair draws two numeric ranges in a chosen relative position:
// overlapping, disjoint, touching, nested or identical, with strides up
// to 13 (so co-prime pairs are common), bounds on both sides of zero, and
// now and then a stride-0 range.
func randShapedPair(r *rand.Rand) (Range, Range) {
	mk := func(lo, n, s int64) Range {
		return Range{Prob: 1, Lo: Num(lo), Hi: Num(lo + (n-1)*s), Stride: s}
	}
	n1, n2 := int64(r.Intn(300)+1), int64(r.Intn(300)+1)
	if r.Intn(8) == 0 {
		n2 = 2
	}
	s1, s2 := int64(r.Intn(13)+1), int64(r.Intn(13)+1)
	lo1 := int64(r.Intn(2001) - 1000)
	x := mk(lo1, n1, s1)
	var y Range
	switch r.Intn(5) {
	case 0: // overlapping
		y = mk(lo1+int64(r.Intn(int(n1*s1)))-int64(r.Intn(50)), n2, s2)
	case 1: // disjoint, on either side
		if r.Intn(2) == 0 {
			y = mk(x.Hi.Const+1+int64(r.Intn(20)), n2, s2)
		} else {
			y = mk(lo1-(n2-1)*s2-1-int64(r.Intn(20)), n2, s2)
		}
	case 2: // touching: y starts where x ends
		y = mk(x.Hi.Const, n2, s2)
	case 3: // nested
		y = mk(lo1+int64(r.Intn(int(n1))), 1+int64(r.Intn(int(n1))), s1)
		if y.Hi.Const > x.Hi.Const {
			y.Hi = x.Hi
		}
	default: // identical
		y = x
	}
	// A non-point stride-0 range: the walk repeats Lo, Count steps by 1.
	if r.Intn(10) == 0 {
		x.Stride = 0
	}
	if r.Intn(2) == 0 {
		return y, x
	}
	return x, y
}

func TestFracLtNumClosedFormMatchesEnumeration(t *testing.T) {
	c := calc()
	lim := c.Cfg.ExactPairLimit
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 5000; i++ {
		x, y := randShapedPair(r)
		if !checkFracLt(t, c, x, y) {
			t.Fatalf("closed form declined in-guard pair %v, %v", x, y)
		}
	}

	const edge = exactLtBound
	cases := []struct {
		name   string
		x, y   Range
		closed bool
	}{
		{"nx == limit walks x", numRange(1, 0, lim-1, 1), numRange(1, 100, 9000, 3), true},
		{"nx == limit+1 walks y", numRange(1, 0, lim, 1), numRange(1, 100, 9000, 3), true},
		{"both past limit approximates", numRange(1, -5, 7*lim, 7), numRange(1, 11, 11+5*lim, 5), false},
		{"bounds at 2^40", numRange(1, edge-4094*3, edge, 3), numRange(1, -edge, edge, 1), true},
		{"bounds at 2^40 walking y", numRange(1, -edge, edge, 1), numRange(1, -edge, -edge+99, 1), true},
		{"bound at 2^40+1 falls back", numRange(1, edge-4095, edge+1, 1), numRange(1, edge-100, edge, 1), false},
		{"low bound at -2^40-1 falls back", numRange(1, -edge-1, -edge+50, 1), numRange(1, -edge, -edge+9, 1), false},
		{"pair count past 2^53 falls back", numRange(1, 0, lim-1, 1), numRange(1, -edge, edge, 1), false},
		{"stride-0 non-point x", numRange(1, 3, 50, 0), numRange(1, 10, 20, 1), true},
		{"stride-0 non-point x off the y grid", numRange(1, 31, 80, 0), numRange(1, 10, 40, 7), true},
		{"stride-0 non-point y", numRange(1, 10, 20, 1), numRange(1, 3, 50, 0), true},
		{"stride-0 non-point x walking y", numRange(1, 3, 3+lim, 0), numRange(1, 10, 20, 0), true},
		{"negative stride falls back", numRange(1, 0, 40, -3), numRange(1, 10, 20, 1), false},
	}
	for _, tc := range cases {
		if got := checkFracLt(t, c, tc.x, tc.y); got != tc.closed {
			t.Errorf("%s: closed form used = %v, want %v", tc.name, got, tc.closed)
		}
	}
}

func FuzzFracLtNum(f *testing.F) {
	const edge = exactLtBound
	f.Add(int64(0), int64(4095), int64(1), int64(100), int64(9000), int64(3))
	f.Add(int64(0), int64(4096), int64(1), int64(100), int64(9000), int64(3))
	f.Add(int64(edge-4094*3), int64(edge), int64(3), int64(-edge), int64(edge), int64(1))
	f.Add(int64(edge-4095), int64(edge+1), int64(1), int64(edge-100), int64(edge), int64(1))
	f.Add(int64(3), int64(50), int64(0), int64(10), int64(20), int64(1))
	f.Add(int64(-40), int64(40), int64(7), int64(-39), int64(-38), int64(1))
	f.Add(int64(0), int64(40), int64(-3), int64(10), int64(20), int64(5))
	f.Fuzz(func(t *testing.T, xlo, xhi, xs, ylo, yhi, ys int64) {
		c := calc()
		x := Range{Prob: 1, Lo: Num(xlo), Hi: Num(xhi), Stride: xs}
		y := Range{Prob: 1, Lo: Num(ylo), Hi: Num(yhi), Stride: ys}
		checkFracLt(t, c, x, y)
	})
}
