package vrange

import (
	"sync"
	"testing"

	"vrp/internal/ir"
)

// TestForcedCollisionNotUnified pins the cons table's collision safety:
// two structurally different values whose fingerprints are forced equal
// via testFingerprintHook must stay distinct representatives. A hash
// collision may cost an overflow-bucket scan, never a wrong unification.
func TestForcedCollisionNotUnified(t *testing.T) {
	a := FromRanges(Range{Prob: 1, Lo: Num(0), Hi: Num(9), Stride: 1})
	b := FromRanges(Range{Prob: 1, Lo: Num(100), Hi: Num(200), Stride: 1})
	if a.BitEqual(b) {
		t.Fatal("test values must differ structurally")
	}

	testFingerprintHook = func(Value) (uint64, bool) { return 0xdeadbeef, true }
	defer func() { testFingerprintHook = nil }()

	it := NewInterner()
	var hits, misses, skips int64
	ia := it.intern(a, &hits, &misses, &skips)
	ib := it.intern(b, &hits, &misses, &skips)
	if hits != 0 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 0 and 2", hits, misses)
	}
	if ia.id == ib.id {
		t.Fatalf("colliding values were unified: id=%d", ia.id)
	}
	if !ia.BitEqual(a) || !ib.BitEqual(b) {
		t.Error("representatives must be bit-equal to their sources")
	}

	// Re-interning under the same forced collision must hit the existing
	// representatives, in both the inline slot and the overflow bucket.
	if r := it.intern(a, &hits, &misses, &skips); r.id != ia.id {
		t.Errorf("re-intern of a: id %d, want %d", r.id, ia.id)
	}
	if r := it.intern(b, &hits, &misses, &skips); r.id != ib.id {
		t.Errorf("re-intern of b: id %d, want %d", r.id, ib.id)
	}
	if hits != 2 || misses != 2 {
		t.Errorf("after re-intern: hits=%d misses=%d, want 2 and 2", hits, misses)
	}
	if it.Size() != 2 {
		t.Errorf("Size() = %d, want 2", it.Size())
	}
}

// TestInternIdentity pins the core hash-cons property: producing the same
// canonical value twice through one Interner yields the identical
// representative (same nonzero id), so fixed-point change tests degrade to
// integer compares.
func TestInternIdentity(t *testing.T) {
	c := NewCalc(DefaultConfig())
	x := FromRanges(Range{Prob: 1, Lo: Num(0), Hi: Num(9), Stride: 1})
	y := FromRanges(Range{Prob: 1, Lo: Num(3), Hi: Num(5), Stride: 1})
	a := c.Apply(ir.BinAdd, x, y)
	b := c.Apply(ir.BinAdd, x, y)
	if a.id == 0 || a.id != b.id {
		t.Fatalf("repeated Apply not hash-consed: ids %d, %d", a.id, b.id)
	}
	if k1, k2 := c.ConstVal(7), c.ConstVal(7); k1.id == 0 || k1.id != k2.id {
		t.Errorf("ConstVal not hash-consed: ids %d, %d", k1.id, k2.id)
	}
}

// TestInternSteadyStateAllocFree pins the allocation contract: once a
// transfer function's operands and result are in the tables, re-running it
// performs zero heap allocations.
func TestInternSteadyStateAllocFree(t *testing.T) {
	c := NewCalc(DefaultConfig())
	x := c.Canonicalize(FromRanges(Range{Prob: 0.7, Lo: Num(0), Hi: Num(63), Stride: 1},
		Range{Prob: 0.3, Lo: Num(100), Hi: Num(120), Stride: 2}))
	y := c.Canonicalize(FromRanges(Range{Prob: 1, Lo: Num(1), Hi: Num(7), Stride: 1}))
	items := []Weighted{{Val: x, W: 0.5}, {Val: y, W: 0.5}}

	// Warm every table (intern + memo) once.
	c.Apply(ir.BinAdd, x, y)
	c.Refine(x, ir.BinLt, y)
	c.Merge(items)
	c.ConstVal(42)

	cases := []struct {
		name string
		fn   func()
	}{
		{"Apply", func() { c.Apply(ir.BinAdd, x, y) }},
		{"Refine", func() { c.Refine(x, ir.BinLt, y) }},
		{"Merge", func() { c.Merge(items) }},
		{"ConstVal", func() { c.ConstVal(42) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(50, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op in steady state, want 0", tc.name, n)
		}
	}
}

// TestInternDisabledBitIdentical pins the equivalence contract of
// interning: every transfer function produces bit-identical values (and
// identical SubOps accounting) with the interner on and off.
func TestInternDisabledBitIdentical(t *testing.T) {
	on := NewCalc(DefaultConfig())
	off := newCalcNoIntern(DefaultConfig())

	mk := func(c *Calc) []Value {
		x := c.Canonicalize(FromRanges(Range{Prob: 0.6, Lo: Num(-5), Hi: Num(20), Stride: 1},
			Range{Prob: 0.4, Lo: Num(64), Hi: Num(64), Stride: 0}))
		y := c.Canonicalize(FromRanges(Range{Prob: 1, Lo: Num(2), Hi: Num(10), Stride: 2}))
		s := c.SymbolicVal(ir.Reg(3))
		var out []Value
		for _, op := range []ir.BinOp{ir.BinAdd, ir.BinSub, ir.BinMul, ir.BinDiv} {
			out = append(out, c.Apply(op, x, y))
		}
		out = append(out,
			c.Refine(x, ir.BinLt, y),
			c.Refine(y, ir.BinGe, c.ConstVal(4)),
			c.Merge([]Weighted{{Val: x, W: 0.25}, {Val: y, W: 0.75}}),
			c.Neg(y),
			c.Apply(ir.BinAdd, s, y),
		)
		return out
	}

	a, b := mk(on), mk(off)
	if len(a) != len(b) {
		t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].BitEqual(b[i]) {
			t.Errorf("result %d differs: intern %v, nointern %v", i, a[i], b[i])
		}
	}
	if on.SubOps != off.SubOps {
		t.Errorf("SubOps differ: intern %d, nointern %d", on.SubOps, off.SubOps)
	}
}

// TestForcedCollisionConcurrentTables pins collision safety under the
// driver's deployment shape: one table per worker, workers interning
// concurrently, every fingerprint forced onto one bucket. Within a table
// no two distinct values may unify; across tables the same content gets
// distinct ids but stays bit-equal (ids are globally unique, so id
// equality implies bit equality while inequality implies nothing).
func TestForcedCollisionConcurrentTables(t *testing.T) {
	testFingerprintHook = func(Value) (uint64, bool) { return 42, true }
	defer func() { testFingerprintHook = nil }()

	// Multi-range, non-boolean shapes: the exact-content-keyed fast tables
	// bypass the fingerprint path (and so the hook) by design.
	mk := func(i int) Value {
		lo := int64(i * 100)
		return FromRanges(
			Range{Prob: 0.5, Lo: Num(lo), Hi: Num(lo + 9), Stride: 1},
			Range{Prob: 0.5, Lo: Num(lo + 50), Hi: Num(lo + 60), Stride: 2})
	}
	const workers, vals = 8, 16

	ids := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			it := NewInterner()
			var hits, misses, skips int64
			ids[w] = make([]uint64, vals)
			for i := 0; i < vals; i++ {
				v := it.intern(mk(i), &hits, &misses, &skips)
				if !v.BitEqual(mk(i)) {
					t.Errorf("worker %d: representative %d not bit-equal to source", w, i)
				}
				ids[w][i] = v.id
			}
			// Second pass must hit the existing representatives.
			for i := 0; i < vals; i++ {
				if r := it.intern(mk(i), &hits, &misses, &skips); r.id != ids[w][i] {
					t.Errorf("worker %d: re-intern of %d got id %d, want %d", w, i, r.id, ids[w][i])
				}
			}
			if misses != vals || hits != vals {
				t.Errorf("worker %d: hits=%d misses=%d, want %d and %d", w, hits, misses, vals, vals)
			}
		}(w)
	}
	wg.Wait()

	seen := map[uint64]bool{}
	for w := range ids {
		perTable := map[uint64]bool{}
		for i, id := range ids[w] {
			if id == 0 {
				t.Fatalf("worker %d value %d: zero id", w, i)
			}
			if perTable[id] {
				t.Fatalf("worker %d: forced collision unified two values (id %d)", w, id)
			}
			perTable[id] = true
			if seen[id] {
				t.Fatalf("id %d issued by two tables: global counter broken", id)
			}
			seen[id] = true
		}
	}
}

// TestArenaEpochResetAllocFree pins the arena recycling contract: after a
// couple of warm-up epochs the Reset + re-intern cycle runs entirely on
// recycled slabs and cleared (bucket-preserving) maps — zero heap
// allocations in steady state.
func TestArenaEpochResetAllocFree(t *testing.T) {
	it := NewInterner()
	var hits, misses, skips int64
	// Inputs are built once: the cycle must be alloc-free end to end, and
	// the interner never retains caller slices (it copies into the arena).
	var vals []Value
	for i := 0; i < 32; i++ {
		lo := int64(i * 10)
		// Arena-backed multi-range values plus exact-table points.
		vals = append(vals,
			FromRanges(
				Range{Prob: 0.25, Lo: Num(lo), Hi: Num(lo + 5), Stride: 1},
				Range{Prob: 0.75, Lo: Num(lo + 100), Hi: Num(lo + 110), Stride: 2}),
			FromRanges(Range{Prob: 1, Lo: Num(lo), Hi: Num(lo), Stride: 0}))
	}
	cycle := func() {
		it.Reset()
		for _, v := range vals {
			it.intern(v, &hits, &misses, &skips)
		}
	}
	cycle()
	cycle() // two warm epochs: slab sizes and map buckets reach steady state
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("Reset + re-intern cycle: %v allocs/op in steady state, want 0", n)
	}
	if it.Epoch() < 3 {
		t.Errorf("Epoch() = %d, want >= 3 after three Resets", it.Epoch())
	}
	if it.Evictions() == 0 {
		t.Error("Evictions() = 0, want > 0 after Resets of a populated table")
	}
}

// TestMergeLoopHeaderBitIdentical pins the loop-header merge memo's
// equivalence contract: MergeLoopHeader with the memo warm produces values
// and Stats accounting bit-identical to plain Merge with interning (and
// the memo) disabled.
func TestMergeLoopHeaderBitIdentical(t *testing.T) {
	on := NewCalc(DefaultConfig())
	off := newCalcNoIntern(DefaultConfig())

	mkItems := func(c *Calc) []Weighted {
		x := c.Canonicalize(FromRanges(Range{Prob: 0.7, Lo: Num(0), Hi: Num(63), Stride: 1},
			Range{Prob: 0.3, Lo: Num(100), Hi: Num(120), Stride: 2}))
		y := c.Canonicalize(FromRanges(Range{Prob: 1, Lo: Num(1), Hi: Num(31), Stride: 2}))
		return []Weighted{{Val: x, W: 0.9375}, {Val: y, W: 0.0625}}
	}
	onItems, offItems := mkItems(on), mkItems(off)

	var got, want Value
	for i := 0; i < 3; i++ { // first call misses the memo, the rest hit
		got = on.MergeLoopHeader(onItems)
		want = off.Merge(offItems)
		if !got.BitEqual(want) {
			t.Fatalf("round %d: MergeLoopHeader %v, Merge (nointern) %v", i, got, want)
		}
	}
	if on.MergeMemoHits == 0 || on.MergeMemoMisses == 0 {
		t.Errorf("memo traffic hits=%d misses=%d, want both > 0", on.MergeMemoHits, on.MergeMemoMisses)
	}
	if on.SubOps != off.SubOps || on.Widens != off.Widens {
		t.Errorf("stats drift: intern SubOps=%d Widens=%d, nointern SubOps=%d Widens=%d",
			on.SubOps, on.Widens, off.SubOps, off.Widens)
	}
}
