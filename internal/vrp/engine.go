package vrp

import (
	"context"
	"math"

	"vrp/internal/dom"
	"vrp/internal/freq"
	"vrp/internal/ir"
	"vrp/internal/telemetry"
	"vrp/internal/vrange"
)

// abortReason says why an engine run stopped before its fixed point.
type abortReason int

const (
	abortNone       abortReason = iota
	abortCancelled              // the run's context was cancelled
	abortStepBudget             // Config.MaxEngineSteps exhausted
)

// engine runs the §3.3 worklist algorithm over one function. Its
// interprocedural inputs are frozen into `in` by the driver before the run
// starts, so the engine never reads the live interprocedural tables: its
// output is a function of `in` alone, which is what lets the driver skip a
// run whose inputs are bit-identical to the last one.
type engine struct {
	f      *ir.Func
	cfg    Config
	calc   *vrange.Calc
	irProg *ir.Program
	in     *funcInputs
	ctx    context.Context

	// tm is this run's telemetry, nil when disabled. Hot-path recording
	// goes through its nil-guarded methods, so the disabled path is a
	// compare-and-skip with zero allocations (see internal/telemetry).
	tm *telemetry.RunMetrics

	steps int64       // worklist items processed by this run
	abort abortReason // set when the run stops before its fixed point

	tree      *dom.Tree
	loops     *dom.LoopInfo
	backEdges map[*ir.Edge]bool

	val      []vrange.Value // per register
	edgeFreq []float64      // per edge ID; solved by the freq package
	blkFreq  []float64      // per block ID
	visited  []bool         // per block ID

	// Per-instruction counters and marks, indexed by Instr.Idx (dense,
	// assigned by BuildDefUse) — flat arrays instead of maps, so the
	// membership tests and budget bumps on the propagation hot path never
	// hash or allocate.
	evalCount     []int // structural changes (widening budget)
	probCount     []int // probability-only changes (churn budget)
	brUpdates     []int // accepted branch probability updates
	derived       []bool
	derivedStrict []bool // constraint-derived with all-nonzero increments
	deriveFailed  []bool
	deriveDeps    map[ir.Reg][]*ir.Instr // value → derived φs consulting it

	branchP   map[*ir.Instr]float64
	branchSrc map[*ir.Instr]PredictionSource

	// Worklists are FIFO queues (head index + slice): breadth-first
	// draining lets the frequency updates of one loop traversal coalesce
	// instead of rippling depth-first through every pending edge.
	// Membership bitsets are indexed by Edge.ID and Instr.Idx.
	flowWL   []*ir.Edge
	flowHead int
	inFlow   []bool
	ssaWL    []*ir.Instr
	ssaHead  int
	inSSA    []bool

	// evalPhi scratch, reused across φ evaluations.
	phiOps   []phiOp
	phiItems []vrange.Weighted

	// sc is the recycled allocation pool this run borrowed its working
	// arrays from; solver and probFn re-solve frequencies without
	// per-solve allocations.
	sc     *engineScratch
	solver *freq.Solver
	probFn freq.BranchProbFunc

	stats Stats
}

// phiOp is one executable φ in-edge: the operand register and edge weight.
type phiOp struct {
	reg ir.Reg
	w   float64
}

// engineScratch holds the per-function allocations that survive across
// engine runs: the dominator structures (the CFG never changes during an
// analysis) and the recycled working arrays. The driver keeps one per
// function, next to its results slot; runs of one function never overlap,
// so each run can reuse the previous run's arrays. Arrays that escape
// into the FuncResult (val, edgeFreq, branchP, branchSrc) are NOT here:
// they are allocated fresh per run. A function that degrades (panic or
// step budget) is quarantined and never re-runs, so a half-mutated
// scratch is never observed.
type engineScratch struct {
	tree      *dom.Tree
	loops     *dom.LoopInfo
	backEdges map[*ir.Edge]bool
	solver    *freq.Solver

	blkFreq       []float64
	visited       []bool
	evalCount     []int
	probCount     []int
	brUpdates     []int
	derived       []bool
	derivedStrict []bool
	deriveFailed  []bool
	deriveDeps    map[ir.Reg][]*ir.Instr
	inFlow        []bool
	inSSA         []bool
	flowWL        []*ir.Edge
	ssaWL         []*ir.Instr
	phiOps        []phiOp
	phiItems      []vrange.Weighted

	// Derivation scratch: the walker (with its own recycled stacks) and
	// the init-operand slices of engine.derive.
	dw      walker
	dvItems []vrange.Weighted
	dvRegs  []ir.Reg
	dvBack  []ir.Reg
}

func newEngineScratch(f *ir.Func) *engineScratch {
	n := f.NumInstrs()
	tree := dom.New(f)
	loops := dom.FindLoops(f, tree)
	back := dom.BackEdges(f, tree)
	return &engineScratch{
		tree:          tree,
		loops:         loops,
		backEdges:     back,
		solver:        freq.NewSolver(f, tree, loops, back),
		blkFreq:       make([]float64, len(f.Blocks)),
		visited:       make([]bool, len(f.Blocks)),
		evalCount:     make([]int, n),
		probCount:     make([]int, n),
		brUpdates:     make([]int, n),
		derived:       make([]bool, n),
		derivedStrict: make([]bool, n),
		deriveFailed:  make([]bool, n),
		deriveDeps:    map[ir.Reg][]*ir.Instr{},
		inFlow:        make([]bool, len(f.Edges)),
		inSSA:         make([]bool, n),
		dw:            walker{onPath: make([]bool, f.NumRegs)},
	}
}

// reset zeroes every borrowed array so a fresh run starts from the same
// state a fresh allocation would.
func (sc *engineScratch) reset() {
	clear(sc.blkFreq)
	clear(sc.visited)
	clear(sc.evalCount)
	clear(sc.probCount)
	clear(sc.brUpdates)
	clear(sc.derived)
	clear(sc.derivedStrict)
	clear(sc.deriveFailed)
	clear(sc.deriveDeps)
	clear(sc.inFlow)
	clear(sc.inSSA)
	sc.flowWL = sc.flowWL[:0]
	sc.ssaWL = sc.ssaWL[:0]
	sc.phiOps = sc.phiOps[:0]
	sc.phiItems = sc.phiItems[:0]
	clear(sc.dw.onPath)
}

func newEngine(ctx context.Context, f *ir.Func, cfg Config, calc *vrange.Calc, prog *ir.Program, in *funcInputs, tm *telemetry.RunMetrics, sc *engineScratch) *engine {
	if sc == nil {
		sc = newEngineScratch(f)
	} else {
		sc.reset()
	}
	e := &engine{
		f:             f,
		cfg:           cfg,
		calc:          calc,
		irProg:        prog,
		in:            in,
		ctx:           ctx,
		tm:            tm,
		val:           make([]vrange.Value, f.NumRegs),
		edgeFreq:      make([]float64, len(f.Edges)),
		blkFreq:       sc.blkFreq,
		visited:       sc.visited,
		evalCount:     sc.evalCount,
		probCount:     sc.probCount,
		brUpdates:     sc.brUpdates,
		derived:       sc.derived,
		derivedStrict: sc.derivedStrict,
		deriveFailed:  sc.deriveFailed,
		deriveDeps:    sc.deriveDeps,
		branchP:       map[*ir.Instr]float64{},
		branchSrc:     map[*ir.Instr]PredictionSource{},
		inFlow:        sc.inFlow,
		inSSA:         sc.inSSA,
		flowWL:        sc.flowWL,
		ssaWL:         sc.ssaWL,
		phiOps:        sc.phiOps,
		phiItems:      sc.phiItems,
		sc:            sc,
		solver:        sc.solver,
	}
	for i := range e.val {
		e.val[i] = vrange.TopValue()
	}
	e.tree = sc.tree
	e.loops = sc.loops
	e.backEdges = sc.backEdges
	e.probFn = func(br *ir.Instr) (float64, bool) {
		p, ok := e.branchP[br]
		return p, ok
	}
	return e
}

// recycle hands the run's (possibly grown) worklist and scratch slices
// back to the pool. Call after the run's results have been read; the
// engine must not be used afterwards.
func (e *engine) recycle() {
	sc := e.sc
	sc.flowWL = e.flowWL
	sc.ssaWL = e.ssaWL
	sc.phiOps = e.phiOps
	sc.phiItems = e.phiItems
}

func (e *engine) prog() *ir.Program { return e.irProg }

// blockFreq is the node's expected executions per invocation, from the
// last frequency solve (footnote 1's "sum of the probabilities of the
// edges which lead to the node being executed", with the loop feedback
// solved in closed form).
func (e *engine) blockFreq(b *ir.Block) float64 {
	if b == e.f.Entry {
		return 1
	}
	s := e.blkFreq[b.ID]
	if s > e.cfg.MaxFreq {
		return e.cfg.MaxFreq
	}
	return s
}

// recomputeFreqs re-solves block/edge frequencies after a branch
// probability change, scheduling every materially changed edge. The
// solver's result buffers are copied into the engine's own arrays
// (edgeFreq escapes into the FuncResult; the solver buffers are reused by
// the next solve).
func (e *engine) recomputeFreqs() {
	fr := e.solver.Compute(e.probFn)
	for i, nv := range fr.Edge {
		if nv > e.cfg.MaxFreq {
			nv = e.cfg.MaxFreq
		}
		old := e.edgeFreq[i]
		if math.Abs(nv-old) > e.cfg.FreqEpsilon*math.Max(1, old) {
			e.pushFlow(e.f.Edges[i])
		}
		e.edgeFreq[i] = nv
	}
	copy(e.blkFreq, fr.Block)
}

func (e *engine) pushFlow(ed *ir.Edge) {
	if !e.inFlow[ed.ID] {
		e.inFlow[ed.ID] = true
		e.flowWL = append(e.flowWL, ed)
		e.tm.PushFlow(len(e.flowWL) - e.flowHead)
	}
}

func (e *engine) pushSSA(in *ir.Instr) {
	if !e.inSSA[in.Idx] {
		e.inSSA[in.Idx] = true
		e.ssaWL = append(e.ssaWL, in)
		e.tm.PushSSA(len(e.ssaWL) - e.ssaHead)
	}
}

// compactQueues reclaims queue prefixes once they dominate the slice.
func (e *engine) compactQueues() {
	if e.flowHead > 1024 && e.flowHead*2 > len(e.flowWL) {
		n := copy(e.flowWL, e.flowWL[e.flowHead:])
		e.flowWL = e.flowWL[:n]
		e.flowHead = 0
	}
	if e.ssaHead > 1024 && e.ssaHead*2 > len(e.ssaWL) {
		n := copy(e.ssaWL, e.ssaWL[e.ssaHead:])
		e.ssaWL = e.ssaWL[:n]
		e.ssaHead = 0
	}
}

// pushUses adds the SSA out-edges of a changed definition (and any derived
// φ that consulted the value during derivation).
func (e *engine) pushUses(r ir.Reg) {
	for _, u := range e.f.Uses[r] {
		e.pushSSA(u)
	}
	for _, phi := range e.deriveDeps[r] {
		e.pushSSA(phi)
	}
}

// cancelCheckMask throttles context polls to one per 256 worklist steps:
// frequent enough to stop a pathological function promptly, rare enough
// that the atomic load never shows up in profiles.
const cancelCheckMask = 0xFF

// run executes the algorithm of §3.3 to its fixed point — or stops early,
// setting e.abort, when the context is cancelled or the step budget
// (Config.MaxEngineSteps) runs out. An aborted run's partial state is
// discarded by the driver, which substitutes the degraded ⊥/heuristic
// result.
func (e *engine) run() {
	if e.cfg.testHookEngineRun != nil {
		e.cfg.testHookEngineRun(e.f)
	}
	// Step 1: the entry node is executable with probability 1; evaluate it
	// and seed the FlowWorkList with its out-edges via the first frequency
	// solve.
	e.visitBlock(e.f.Entry)
	e.recomputeFreqs()

	// Step 2: drain the lists, preferring the configured one.
	for e.flowHead < len(e.flowWL) || e.ssaHead < len(e.ssaWL) {
		e.steps++
		if e.cfg.MaxEngineSteps > 0 && e.steps > int64(e.cfg.MaxEngineSteps) {
			e.abort = abortStepBudget
			return
		}
		if e.steps&cancelCheckMask == 0 && e.ctx != nil && e.ctx.Err() != nil {
			e.abort = abortCancelled
			return
		}
		flowAvail := e.flowHead < len(e.flowWL)
		ssaAvail := e.ssaHead < len(e.ssaWL)
		if (e.cfg.FlowFirst && flowAvail) || !ssaAvail {
			ed := e.flowWL[e.flowHead]
			e.flowWL[e.flowHead] = nil
			e.flowHead++
			e.inFlow[ed.ID] = false
			if e.edgeFreq[ed.ID] > 0 {
				e.visitBlock(ed.To) // step 3
			}
			e.compactQueues()
			continue
		}
		in := e.ssaWL[e.ssaHead]
		e.ssaWL[e.ssaHead] = nil
		e.ssaHead++
		e.inSSA[in.Idx] = false
		e.processSSAItem(in) // steps 4–7
		e.compactQueues()
	}
	e.finalize()
}

// visitBlock implements step 3: on first visit evaluate every expression
// in the node, afterwards only the φ-functions; the terminator's out-edge
// probabilities are refreshed either way because the node frequency may
// have changed.
func (e *engine) visitBlock(b *ir.Block) {
	e.stats.FlowVisits++
	first := !e.visited[b.ID]
	e.visited[b.ID] = true
	for _, in := range b.Instrs {
		if first || in.Op == ir.OpPhi {
			e.evalInstr(in)
		}
	}
}

// processSSAItem handles one SSA worklist entry (steps 4–7).
func (e *engine) processSSAItem(in *ir.Instr) {
	if in.Op == ir.OpPhi {
		e.evalInstr(in)
		return
	}
	// Step 6 guard: evaluate only if the node can execute.
	b := in.Block
	if !e.visited[b.ID] {
		return // will be evaluated when a flow edge reaches it
	}
	if b != e.f.Entry && e.blockFreq(b) <= 0 {
		return
	}
	e.evalInstr(in)
}

// setValue records a freshly evaluated result, applying the MaxEvals
// widening backstop, and propagates along SSA edges on change.
func (e *engine) setValue(in *ir.Instr, nv vrange.Value) {
	old := e.val[in.Dst]
	if nv.Equal(old) {
		return
	}
	if !nv.SameShape(old) {
		e.evalCount[in.Idx]++
		if e.evalCount[in.Idx] > e.cfg.MaxEvals {
			e.tm.Widen()
			nv = vrange.BottomValue()
			if nv.Equal(old) {
				return
			}
		}
	} else {
		// Probability-only refinement. The branch-prob → frequency →
		// φ-weight feedback can oscillate without ever changing range
		// structure; a generous churn budget lets genuine refinements
		// settle and then freezes the value near its fixpoint.
		e.probCount[in.Idx]++
		if e.probCount[in.Idx] > probChurnBudget {
			e.val[in.Dst] = nv
			return // keep the latest value, stop propagating the ripple
		}
	}
	e.val[in.Dst] = nv
	e.pushUses(in.Dst)
}

// Budgets bounding the probability-refinement feedback (structure changes
// are bounded separately by Config.MaxEvals).
const (
	probChurnBudget    = 256
	branchUpdateBudget = 256
)

// symVal returns the operand's value, substituting the symbolic point
// range {1[r:r:0]} for ⊥ operands when symbolic ranges are enabled — this
// is how values "specified relative to others" (§3.4) arise.
func (e *engine) symVal(r ir.Reg) vrange.Value {
	v := e.val[r]
	if v.IsBottom() && e.cfg.Range.Symbolic {
		return vrange.Symbolic(e.rootOf(r))
	}
	return v
}

// rootOf chases copies, assertion parents and identity-φs to the
// canonical ancestor register, so that symbolic bounds created from
// different copies or π-refinements of the same runtime value compare
// equal. Assertions are runtime identities (their refinement lives in the
// value table, not in the symbolic name), and a φ whose operands all
// chase back to the φ itself or to one common register — the shape
// assertion-versioning creates at loop headers for unmodified variables —
// is an identity too.
func (e *engine) rootOf(r ir.Reg) ir.Reg {
	for i := 0; i < 64; i++ {
		d := e.f.Defs[r]
		if d == nil {
			return r
		}
		switch d.Op {
		case ir.OpCopy:
			r = d.A
		case ir.OpAssert:
			r = d.Parent
		case ir.OpPhi:
			origin := ir.None
			distinct := true
			for _, a := range d.Args {
				o := e.chaseCopyAssert(a, r)
				if o == r {
					continue // refinement of the φ itself
				}
				if origin == ir.None {
					origin = o
				} else if origin != o {
					distinct = false
					break
				}
			}
			if !distinct || origin == ir.None {
				return r
			}
			r = origin
		default:
			return r
		}
	}
	return r
}

// chaseCopyAssert follows copies and assertion parents only, stopping at
// any other definition (including φs). self short-circuits cycles back to
// the φ being resolved.
func (e *engine) chaseCopyAssert(r, self ir.Reg) ir.Reg {
	for i := 0; i < 64; i++ {
		if r == self {
			return self
		}
		d := e.f.Defs[r]
		if d == nil {
			return r
		}
		switch d.Op {
		case ir.OpCopy:
			r = d.A
		case ir.OpAssert:
			r = d.Parent
		default:
			return r
		}
	}
	return r
}

// evalInstr evaluates one instruction (the "symbolic execution" of §3.2).
func (e *engine) evalInstr(in *ir.Instr) {
	switch in.Op {
	case ir.OpPhi:
		e.evalPhi(in)
		return
	case ir.OpBr, ir.OpJmp:
		e.updateOutEdges(in.Block)
		return
	case ir.OpRet, ir.OpPrint, ir.OpStore:
		return
	}
	e.stats.ExprEvals++
	var nv vrange.Value
	switch in.Op {
	case ir.OpConst:
		nv = vrange.Const(in.Const)
	case ir.OpParam:
		nv = e.in.param(in.ArgIndex)
	case ir.OpInput, ir.OpLoad, ir.OpAlloc:
		// Loads are the paper's canonical ⊥ producers (§3.5); input() and
		// array references are equally opaque.
		nv = vrange.BottomValue()
	case ir.OpCopy:
		nv = e.symVal(in.A)
	case ir.OpNeg:
		nv = e.calc.Neg(e.val[in.A])
	case ir.OpNot:
		nv = e.calc.Not(e.val[in.A])
	case ir.OpBin:
		a, b := e.symVal(in.A), e.symVal(in.B)
		if in.BinOp.IsComparison() {
			// Correlation-preserving comparison (§3.4): when one side's
			// range is expressed relative to the other side's root value
			// (e.g. j ∈ [0:i:1] compared against i), compare against the
			// symbolic point rather than the root's numeric hull — the
			// uniform-independence model would discard the correlation.
			ra, rb := e.rootOf(in.A), e.rootOf(in.B)
			if refersTo(a, rb) {
				b = vrange.Symbolic(rb)
			} else if refersTo(b, ra) {
				a = vrange.Symbolic(ra)
			}
		}
		nv = e.calc.Apply(in.BinOp, a, b)
	case ir.OpAssert:
		e.tm.Assert()
		other := vrange.Const(in.Const)
		if in.B != ir.None {
			other = e.symVal(in.B)
		}
		parent := e.val[in.A]
		nv = e.calc.Refine(parent, in.BinOp, other)
		if e.tm != nil && vrange.RefineGain(parent, nv) {
			e.tm.AssertTighten()
		}
	case ir.OpCall:
		callee := e.prog().ByName[in.Callee]
		if callee == nil {
			nv = vrange.BottomValue()
		} else {
			nv = e.in.ret(callee)
		}
	default:
		nv = vrange.BottomValue()
	}
	e.setValue(in, nv)
}

// evalPhi implements steps 4 and 5: loop-carried φs are derived, others
// merge their operands weighted by in-edge probability. The paper's
// footnote 4 short-circuits families of assertions of a common parent.
func (e *engine) evalPhi(phi *ir.Instr) {
	e.stats.PhiEvals++
	b := phi.Block

	hasBack := false
	for _, pe := range b.Preds {
		if e.backEdges[pe] {
			hasBack = true
			break
		}
	}
	if hasBack && e.cfg.Derivation && !e.deriveFailed[phi.Idx] {
		v, st := e.derive(phi)
		switch st {
		case deriveOK:
			if !e.derived[phi.Idx] {
				e.stats.DerivedLoops++
			}
			e.derived[phi.Idx] = true
			e.setValue(phi, v)
			return
		case deriveNotReady:
			// Not enough information yet (e.g. the increment constant's
			// block has not executed). Fall through to the optimistic
			// merge of the executable in-edges so the loop body becomes
			// reachable; derivation is retried when the consulted values
			// lower.
		case deriveFail:
			e.stats.FailedDerives++
			e.deriveFailed[phi.Idx] = true
			// A φ may have derived earlier under transient information
			// (e.g. an increment operand that was still a lone constant)
			// and fail to re-derive once the operand lowers. Clearing the
			// derived mark hands the φ back to merge-based evaluation —
			// leaving it would freeze a stale optimistic value.
			e.derived[phi.Idx] = false
			e.derivedStrict[phi.Idx] = false
		}
	}
	if e.derived[phi.Idx] {
		// Derived expressions are not re-evaluated by merging (§3.3 step
		// 4); value updates happen through re-derivation above.
		return
	}

	// Step 5: executable in-edges only.
	ops := e.phiOps[:0]
	for i, pe := range b.Preds {
		w := e.edgeFreq[pe.ID]
		if w <= 0 {
			continue
		}
		ops = append(ops, phiOp{phi.Args[i], w})
	}
	e.phiOps = ops
	if len(ops) == 0 {
		return // not yet executable: stays ⊤
	}

	// Footnote 4: if every executable operand is an assertion of (or copy
	// of) one common parent, the merge is exactly the parent's range.
	origin := e.assertOrigin(ops[0].reg)
	same := origin != ir.None && origin != phi.Dst
	for _, o := range ops[1:] {
		if e.assertOrigin(o.reg) != origin {
			same = false
			break
		}
	}
	if same && len(ops) > 1 {
		e.tm.PhiMerge()
		e.setValue(phi, e.calc.MergeAssertionFamily(e.val[origin]))
		return
	}

	e.tm.PhiMerge()
	items := e.phiItems[:0]
	for _, o := range ops {
		items = append(items, vrange.Weighted{Val: e.val[o.reg], W: o.w})
	}
	e.phiItems = items
	nv := e.calc.Merge(items)
	if e.tm != nil && vrange.MergeLoss(nv, items) {
		e.tm.PhiHull()
	}
	e.setValue(phi, nv)
}

// copyRoot chases copy chains only (no assertion unwrapping).
func (e *engine) copyRoot(r ir.Reg) ir.Reg {
	for i := 0; i < 64; i++ {
		d := e.f.Defs[r]
		if d == nil || d.Op != ir.OpCopy {
			return r
		}
		r = d.A
	}
	return r
}

// assertOrigin finds the nearest π-parent of a φ operand: copies are
// transparent, and exactly one assertion level is unwrapped, so that a
// family of complementary assertions maps to its immediate common parent
// (the most refined shared value) rather than to the top of the chain.
func (e *engine) assertOrigin(r ir.Reg) ir.Reg {
	r = e.copyRoot(r)
	d := e.f.Defs[r]
	if d != nil && d.Op == ir.OpAssert {
		return e.copyRoot(d.Parent)
	}
	return r
}

// updateOutEdges re-examines a block's conditional branch (step 7). A
// materially changed probability triggers a whole-function frequency
// re-solve, which schedules every affected flow edge. Jump frequencies
// need no separate handling: the solver owns them.
func (e *engine) updateOutEdges(b *ir.Block) {
	t := b.Terminator()
	if t == nil || t.Op != ir.OpBr {
		return
	}
	p, src, ok := e.branchProb(t)
	if !ok {
		return
	}
	old, had := e.branchP[t]
	e.branchSrc[t] = src
	if had && math.Abs(old-p) <= 1e-9 {
		return
	}
	if e.brUpdates[t.Idx] > branchUpdateBudget {
		e.branchP[t] = p // keep the freshest value, stop re-solving
		return
	}
	e.brUpdates[t.Idx]++
	e.branchP[t] = p
	e.recomputeFreqs()
}

// branchProb determines the probability of taking the branch by examining
// the controlling variable's value range (step 7), falling back to the
// heuristic hook for ⊥.
func (e *engine) branchProb(t *ir.Instr) (float64, PredictionSource, bool) {
	cv := e.val[t.A]
	switch cv.Kind() {
	case vrange.Top:
		return 0, ByDefault, false // not yet evaluated
	case vrange.Bottom:
		return e.fallback(t), ByHeuristic, true
	}
	if cv.IsInfeasible() {
		return 0, ByDefault, false
	}
	p, ok := e.calc.ProbTrue(cv)
	if !ok {
		return e.fallback(t), ByHeuristic, true
	}
	return p, ByRange, true
}

func (e *engine) fallback(t *ir.Instr) float64 {
	if e.cfg.Fallback != nil {
		return e.cfg.Fallback(e.f, t)
	}
	return 0.5
}

// finalize assigns heuristic probabilities to branches that never received
// one (unreachable code or ⊤ conditions left by interprocedural cycles).
func (e *engine) finalize() {
	for _, b := range e.f.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpBr {
			continue
		}
		if _, ok := e.branchP[t]; ok {
			continue
		}
		e.branchP[t] = e.fallback(t)
		e.branchSrc[t] = ByDefault
	}
}

func (e *engine) result() *FuncResult {
	derived := make(map[*ir.Instr]bool)
	for _, b := range e.f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi && e.derived[in.Idx] {
				derived[in] = true
			}
		}
	}
	fr := &FuncResult{
		Fn:           e.f,
		Val:          e.val,
		EdgeFreq:     e.edgeFreq,
		BranchProb:   e.branchP,
		BranchSource: e.branchSrc,
		Derived:      derived,
	}
	return fr
}

// refersTo reports whether any bound of the value references register r.
func refersTo(v vrange.Value, r ir.Reg) bool {
	if v.Kind() != vrange.Set {
		return false
	}
	for _, rg := range v.Ranges {
		if rg.Lo.Var == r || rg.Hi.Var == r {
			return true
		}
	}
	return false
}
