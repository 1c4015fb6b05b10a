package vrange

// Integer kernels behind the closed-form `x < y` pair count in
// fracLtClosed. Its guard keeps every operand within a few times 2^41 and
// every sum within 2^53, so no product here overflows int64.

// ceilDiv returns ⌈p/q⌉ for q > 0 (Go's division truncates toward zero).
func ceilDiv(p, q int64) int64 {
	d := p / q
	if p%q != 0 && p > 0 {
		d++
	}
	return d
}

// floorSum returns Σ_{k<n} ⌊(a·k+b)/m⌋ for n ≥ 0, m ≥ 1 and a, b ≥ 0,
// by the Euclid-style reduction: peel off the integer parts of a/m and
// b/m, then swap the roles of a and m on the remaining lattice-point
// count. Every added piece is non-negative, so none exceeds the total.
func floorSum(n, m, a, b int64) int64 {
	sum := int64(0)
	for n > 0 {
		if a >= m {
			sum += n * (n - 1) / 2 * (a / m)
			a %= m
		}
		if b >= m {
			sum += n * (b / m)
			b %= m
		}
		top := a*n + b
		if top < m {
			break
		}
		n, b, m, a = top/m, top%m, a, m
	}
	return sum
}

// clampCeilSum returns Σ_{i<n} clamp(⌈(a·i+c)/m⌉, 0, top) for n, top ≥ 1,
// a ≥ 0 and m ≥ 1. The terms are non-decreasing in i, so the sum splits
// into a prefix of zeros, a middle floor-sum and a suffix clipped at top.
func clampCeilSum(n, a, c, m, top int64) int64 {
	if a == 0 {
		return n * min(max(ceilDiv(c, m), 0), top)
	}
	// ⌈(a·i+c)/m⌉ ≥ 1  ⇔  a·i+c ≥ 1.
	i0 := min(max(ceilDiv(1-c, a), 0), n)
	// ⌈(a·i+c)/m⌉ ≥ top  ⇔  a·i+c > (top-1)·m.
	i1 := min(max(ceilDiv((top-1)*m-c+1, a), i0), n)
	// ⌈p/m⌉ = ⌊(p+m-1)/m⌋, re-indexed from i0.
	mid := floorSum(i1-i0, m, a, a*i0+c+m-1)
	return mid + (n-i1)*top
}
