package vrp

import (
	"sort"

	"vrp/internal/callgraph"
	"vrp/internal/ir"
	"vrp/internal/vrange"
)

// interproc holds cross-function state: per-caller jump functions for each
// callee's formals, and return ranges. Formal parameter values are
// recomputed on demand as the weighted merge over callers, so the tables
// converge deterministically across passes.
//
// Storage is dense and indexed by call-graph function index, so merges
// iterate callers in function-index order, never map order: float
// accumulation order — and therefore every output bit — is identical run
// to run. Each function's run writes only its own slots (retVals[f], and
// args[callee][pos-of-f]).
type interproc struct {
	cfg  Config
	prog *ir.Program
	cg   *callgraph.Graph

	// args[callee][i] is the contribution of caller cg.Callers[callee][i]:
	// one merged value per formal, plus that caller's total call frequency
	// into callee. nil until the caller has been analyzed once.
	args    [][]*callerArgs
	retVals []vrange.Value // function index → merged return range

	// drops counts symbolic values collapsed to ⊥ at function boundaries
	// by sanitize — the telemetry layer's measure of interprocedural
	// precision loss.
	drops int64

	// Recursion widening (Config.RecWidenAfter): pin flags for return
	// ranges and same-SCC argument positions. A slot still moving once
	// recWidenAfter full passes have completed (pass is the driver's
	// 0-based pass index, advanced before each pass starts) is pinned —
	// pass-based rather than per-slot move counting, so every straggler
	// pins in the same pass and late-starting slots cannot cascade past
	// MaxPasses. Like args/retVals, retPinned[fi] is written only by fi's
	// own run and argPinned[ci][pos] only by caller Callers[ci][pos]'s.
	recWidenAfter int
	pass          int
	assumedMag    int64
	recursive     []bool // function index → member of a cyclic SCC
	retPinned     []bool // function index → return range widened
	argPinned     [][]bool
	recWidens     int64 // slots pinned; Stats.RecWidens
}

type callerArgs struct {
	vals []vrange.Value
	w    float64
}

func newInterproc(p *ir.Program, cfg Config, cg *callgraph.Graph) *interproc {
	n := cg.NumFuncs()
	ip := &interproc{
		cfg:     cfg,
		prog:    p,
		cg:      cg,
		args:    make([][]*callerArgs, n),
		retVals: make([]vrange.Value, n),
	}
	ip.recWidenAfter = cfg.RecWidenAfter
	ip.assumedMag = cfg.Range.AssumedVarValue
	if ip.assumedMag <= 0 {
		ip.assumedMag = 10
	}
	ip.recursive = make([]bool, n)
	ip.retPinned = make([]bool, n)
	ip.argPinned = make([][]bool, n)
	for i := 0; i < n; i++ {
		ip.args[i] = make([]*callerArgs, len(cg.Callers[i]))
		ip.recursive[i] = cg.Recursive(cg.SCCID[i])
		ip.argPinned[i] = make([]bool, len(cg.Callers[i]))
		if cfg.Interprocedural {
			ip.retVals[i] = vrange.TopValue()
		} else {
			ip.retVals[i] = vrange.BottomValue()
		}
	}
	return ip
}

// numericHull returns the [lo, hi] envelope of a purely numeric set.
// ok is false for ⊤, ⊥, empty sets and sets with symbolic bounds.
func numericHull(v vrange.Value) (lo, hi int64, ok bool) {
	if v.Kind() != vrange.Set || len(v.Ranges) == 0 {
		return 0, 0, false
	}
	for i, r := range v.Ranges {
		if !r.Lo.IsNum() || !r.Hi.IsNum() {
			return 0, 0, false
		}
		if i == 0 || r.Lo.Const < lo {
			lo = r.Lo.Const
		}
		if i == 0 || r.Hi.Const > hi {
			hi = r.Hi.Const
		}
	}
	return lo, hi, true
}

// hullRange builds the single-range probability-1 value [lo:hi].
func hullRange(lo, hi int64) vrange.Value {
	stride := int64(1)
	if lo == hi {
		stride = 0
	}
	return vrange.FromRanges(vrange.Range{Prob: 1, Lo: vrange.Num(lo), Hi: vrange.Num(hi), Stride: stride})
}

// clampMag widens a numeric set to its single hull range clamped into
// [-assumedMag, assumedMag] with probability 1. Non-numeric or non-Set
// values pass through untouched; update only feeds it sanitize output,
// which is numeric.
func (ip *interproc) clampMag(v vrange.Value) vrange.Value {
	lo, hi, ok := numericHull(v)
	if !ok {
		return v
	}
	m := ip.assumedMag
	return hullRange(min(max(lo, -m), m), min(max(hi, -m), m))
}

// pinValue is the value a slot takes at the moment it is pinned: the
// full assumed hull. Saturating immediately — rather than letting
// widenPinned walk the {bound, ±assumedMag} ladder over later passes —
// makes the pin a fixed point of every subsequent merge, so all
// stragglers pinned in the arming pass settle in a single confirming
// pass. That one-pass settling is what lets the default threshold sit
// at MaxPasses-2. Non-numeric values fall back to the clamp.
func (ip *interproc) pinValue(cur vrange.Value) vrange.Value {
	cc := ip.clampMag(cur)
	if _, _, ok := numericHull(cc); !ok {
		return cc
	}
	return hullRange(-ip.assumedMag, ip.assumedMag)
}

// widenPinned folds a freshly computed value into a pinned slot holding
// prev. This is classic interval widening over the clamped hulls: a bound
// that moved outward since prev jumps straight to ±assumedMag, a bound at
// rest (or moving inward) keeps its previous position. The stored hull
// therefore only ever grows, inside the finite ladder
// {prev bound, ±assumedMag} — at most two more moves after the pin — which
// is the termination guarantee for recursive fixpoints whose exact
// descending chain (e.g. ackermann's argument ranges growing one value
// per pass) would outlast MaxPasses.
func (ip *interproc) widenPinned(prev, cur vrange.Value) vrange.Value {
	cc := ip.clampMag(cur)
	pl, ph, ok := numericHull(prev)
	if !ok {
		return cc
	}
	cl, ch, ok := numericHull(cc)
	if !ok {
		return cc
	}
	lo, hi := pl, ph
	if cl < pl {
		lo = -ip.assumedMag
	}
	if ch > ph {
		hi = ip.assumedMag
	}
	return hullRange(lo, hi)
}

// beginPass records the driver's 0-based pass index; widening arms once
// recWidenAfter full passes have completed. Called before each pass.
func (ip *interproc) beginPass(pass int) { ip.pass = pass }

// widenArmed reports whether recursion widening pins moving slots in
// the current pass: the first recWidenAfter passes stay exact.
func (ip *interproc) widenArmed() bool {
	return ip.recWidenAfter > 0 && ip.pass >= ip.recWidenAfter
}

// maybeWidenRet applies recursion widening to a freshly merged return
// range of function fi. A return range still moving after recWidenAfter
// passes is pinned; from then on every merge result is clamped.
func (ip *interproc) maybeWidenRet(fi int, v vrange.Value) vrange.Value {
	if ip.recWidenAfter <= 0 || !ip.recursive[fi] {
		return v
	}
	if ip.retPinned[fi] {
		return ip.widenPinned(ip.retVals[fi], v)
	}
	if v.Equal(ip.retVals[fi]) {
		return v // not a move
	}
	if ip.widenArmed() {
		ip.retPinned[fi] = true
		ip.recWidens++
		return ip.pinValue(v)
	}
	return v
}

// callerPos locates caller fi in the sorted caller list of callee ci.
func (ip *interproc) callerPos(ci, fi int) int {
	callers := ip.cg.Callers[ci]
	pos := sort.SearchInts(callers, fi)
	if pos == len(callers) || callers[pos] != fi {
		return -1
	}
	return pos
}

// paramValue returns the current value of formal #idx of function fi: the
// weighted merge of the jump functions at the known call sites, iterated in
// caller-index order. With no recorded caller yet it is ⊤ in
// interprocedural mode (optimistic: unreached so far), ⊥ otherwise. main's
// parameters are always ⊥ (program inputs). Sub-operations accrue to the
// caller-supplied calc (the running engine's), so no counts are lost.
func (ip *interproc) paramValue(fi, idx int, calc *vrange.Calc) vrange.Value {
	if !ip.cfg.Interprocedural || ip.cg.Funcs[fi].Name == "main" {
		return vrange.BottomValue()
	}
	var items []vrange.Weighted
	any := false
	for pos := range ip.cg.Callers[fi] {
		ca := ip.args[fi][pos]
		if ca == nil {
			continue
		}
		any = true
		if idx < len(ca.vals) {
			items = append(items, vrange.Weighted{Val: ca.vals[idx], W: ca.w})
		}
	}
	if !any {
		return vrange.TopValue()
	}
	return calc.Merge(items)
}

// returnValue returns the current return range of the callee with function
// index ci.
func (ip *interproc) returnValue(ci int) vrange.Value {
	return ip.retVals[ci]
}

// sanitize strips caller-local symbolic bounds from a value crossing a
// function boundary: the representation's ancestor variables are SSA names
// of a single function. Each collapse to ⊥ is counted in ip.drops.
func (ip *interproc) sanitize(v vrange.Value) vrange.Value {
	if v.Kind() != vrange.Set {
		return v
	}
	for _, r := range v.Ranges {
		if !r.Lo.IsNum() || !r.Hi.IsNum() {
			ip.drops++
			return vrange.BottomValue()
		}
	}
	return v
}

// update folds one function run back into the interprocedural tables; it
// reports whether anything lowered (another pass is needed). vals is the
// run's per-register value table, blockFreq its per-block expected
// executions, and calc accumulates merge sub-operations. The values come
// from an engine run normally, or from a degraded ⊥/heuristic result when
// the engine panicked or ran out of budget — folding the degraded values
// keeps callers and callees sound (they see ⊥, never a stale optimistic
// range). Only fi's own slots are written.
func (ip *interproc) update(fi int, vals []vrange.Value, blockFreq func(*ir.Block) float64, calc *vrange.Calc) bool {
	if !ip.cfg.Interprocedural {
		return false
	}
	f := ip.cg.Funcs[fi]
	changed := false

	// Return range of f.
	var items []vrange.Weighted
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpRet || t.A == ir.None {
			continue
		}
		w := blockFreq(b)
		if w <= 0 {
			continue
		}
		items = append(items, vrange.Weighted{Val: ip.sanitize(vals[t.A]), W: w})
	}
	newRet := ip.maybeWidenRet(fi, calc.Merge(items))
	if !newRet.Equal(ip.retVals[fi]) {
		ip.retVals[fi] = newRet
		changed = true
	}

	// Jump functions: actual argument values at every call site in f,
	// weighted by call-site frequency, merged per callee (in callee-index
	// order, for deterministic float accumulation).
	type argAcc struct {
		items [][]vrange.Weighted
		w     float64
	}
	accs := map[int]*argAcc{}
	for _, b := range f.Blocks {
		w := blockFreq(b)
		if w <= 0 {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op != ir.OpCall {
				continue
			}
			callee := ip.prog.ByName[in.Callee]
			if callee == nil {
				continue
			}
			ci := ip.cg.Index[callee]
			acc := accs[ci]
			if acc == nil {
				acc = &argAcc{items: make([][]vrange.Weighted, len(callee.Params))}
				accs[ci] = acc
			}
			acc.w += w
			for i := range callee.Params {
				var av vrange.Value = vrange.BottomValue()
				if i < len(in.Args) {
					av = ip.sanitize(vals[in.Args[i]])
				}
				acc.items[i] = append(acc.items[i], vrange.Weighted{Val: av, W: w})
			}
		}
	}
	touched := make([]int, 0, len(accs))
	for ci := range accs {
		touched = append(touched, ci)
	}
	sort.Ints(touched)
	for _, ci := range touched {
		acc := accs[ci]
		ca := &callerArgs{vals: make([]vrange.Value, len(acc.items)), w: acc.w}
		for i := range acc.items {
			ca.vals[i] = calc.Merge(acc.items[i])
		}
		pos := ip.callerPos(ci, fi)
		if pos < 0 {
			continue // cannot happen: fi has a static call to ci
		}
		prev := ip.args[ci][pos]
		// Recursion widening on same-SCC call edges: an argument slot
		// still moving after recWidenAfter passes is pinned and its
		// values widened over the clamped hulls, cutting the cycle that
		// keeps recursive argument ranges (e.g. ackermann's) shifting
		// forever.
		if ip.recWidenAfter > 0 && ip.cg.SCCID[ci] == ip.cg.SCCID[fi] {
			if ip.argPinned[ci][pos] {
				for i := range ca.vals {
					if prev != nil && i < len(prev.vals) {
						ca.vals[i] = ip.widenPinned(prev.vals[i], ca.vals[i])
					} else {
						ca.vals[i] = ip.clampMag(ca.vals[i])
					}
				}
				// Freeze the weight too: frequencies on a recursive
				// cycle edge feed back into themselves (probabilities →
				// block frequencies → merge weights → probabilities)
				// and can orbit forever even with the values pinned.
				// Keeping the pin-time weight makes the pinned slot a
				// true fixed point at the cost of frequency precision
				// on that one edge.
				if prev != nil {
					ca.w = prev.w
				}
			} else if prev != nil && !sameArgs(prev, ca) && ip.widenArmed() {
				ip.argPinned[ci][pos] = true
				ip.recWidens++
				for i := range ca.vals {
					ca.vals[i] = ip.pinValue(ca.vals[i])
				}
				// Freeze the weight at pin time too (see above).
				ca.w = prev.w
			}
		}
		if prev == nil || !sameArgs(prev, ca) {
			ip.args[ci][pos] = ca
			changed = true
		}
	}
	return changed
}

func sameArgs(a, b *callerArgs) bool {
	if len(a.vals) != len(b.vals) {
		return false
	}
	const wEps = 1e-6
	if a.w-b.w > wEps || b.w-a.w > wEps {
		return false
	}
	for i := range a.vals {
		if !a.vals[i].Equal(b.vals[i]) {
			return false
		}
	}
	return true
}
