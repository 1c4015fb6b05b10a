package vrp

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"sort"
	"strconv"

	"vrp/internal/callgraph"
	"vrp/internal/dom"
	"vrp/internal/freq"
	"vrp/internal/ir"
	"vrp/internal/telemetry"
	"vrp/internal/vrange"
)

// The analysis driver runs the §3.7 interprocedural fixpoint as a
// sequential, incremental, work-skipping schedule:
//
//   - Each pass walks the call graph condensation in SCC id order
//     (callgraph numbers SCCs by call depth, so callers come before their
//     callees); mutually recursive functions (one SCC) are analyzed in
//     call order.
//   - Before a function runs, its interprocedural inputs — the merged
//     formal-parameter values and the return ranges of its known callees —
//     are frozen into a funcInputs snapshot. The engine reads only the
//     snapshot, never the live interprocedural tables.
//   - The snapshot is fingerprinted (vrange.Hasher). If a function's input
//     vector is bit-identical to the one of its previous engine run, the
//     run is skipped and the prior FuncResult reused: the engine is a
//     deterministic function of its inputs, so skipping provably cannot
//     change any output bit. On fixpoints that converge early, later
//     passes skip almost everything (Stats.FuncsSkipped).
//
// Determinism: results and diagnostics go to per-function slots and every
// merge iterates in fixed index order, so outputs are bit-identical run to
// run and Stats.SubOps/ExprEvals stay exact.

// funcInputs freezes one function's interprocedural inputs for one engine
// run (or one skip decision).
type funcInputs struct {
	params []vrange.Value            // merged formal-parameter values
	rets   map[*ir.Func]vrange.Value // return range of every known callee
	vec    []vrange.Value            // canonical vector: params, then callee returns in callee-index order
	hash   uint64                    // vrange.Hasher over vec
}

// param returns the value of formal #i; a formal no caller has supplied is
// ⊤ (the merge of nothing — optimistic, as in paramValue).
func (in *funcInputs) param(i int) vrange.Value {
	if i >= 0 && i < len(in.params) {
		return in.params[i]
	}
	return vrange.TopValue()
}

// ret returns the frozen return range of a known callee.
func (in *funcInputs) ret(callee *ir.Func) vrange.Value {
	if v, ok := in.rets[callee]; ok {
		return v
	}
	return vrange.BottomValue()
}

// addEffort folds one function's engine work into the run's counters.
func (s *Stats) addEffort(e *Stats) {
	s.ExprEvals += e.ExprEvals
	s.PhiEvals += e.PhiEvals
	s.FlowVisits += e.FlowVisits
	s.DerivedLoops += e.DerivedLoops
	s.FailedDerives += e.FailedDerives
	s.SubOps += e.SubOps
}

type driver struct {
	prog *ir.Program
	cfg  Config
	cg   *callgraph.Graph
	ip   *interproc
	ctx  context.Context

	results []*FuncResult    // function index → latest FuncResult
	prevIn  [][]vrange.Value // function index → input vector of the last engine run (nil: never ran)
	prevFP  []uint64         // fingerprint of prevIn

	// poisoned marks functions whose engine panicked or ran out of step
	// budget: their results are the degraded ⊥/heuristic fallback and
	// they are quarantined for the remaining passes (the degraded
	// contribution is already a fixpoint).
	poisoned []bool

	// diags collects diagnostics in per-function slots (index = function
	// index): the final Diagnostics slice is concatenated in
	// function-index order, per-function in pass order.
	diags [][]Diagnostic

	// sccFuncs orders each SCC's members by callOrder position, so
	// mutually recursive functions are analyzed callers-roughly-first
	// exactly as the classic sequential driver did.
	sccFuncs [][]int

	// scratch holds one recycled engine allocation pool per function
	// (dominator structures plus zeroed-on-reuse working arrays), created
	// lazily on the function's first engine run.
	scratch []*engineScratch

	// bodyEnc/bodyFPs lazily cache each function's canonical body
	// encoding and fingerprint for Config.FuncStore keys (nil slices when
	// no store is configured).
	bodyEnc  [][]byte
	bodyFPs  []uint64
	configFP uint64

	// rec is the run's telemetry recorder, nil when disabled. Counters go
	// into per-function slots; wall-clock durations are the only
	// nondeterministic fields.
	rec *telemetry.Recorder

	// Non-convergence demotion accounting (filled by demoteUnconverged):
	// ⊤ cells demoted to ⊥, and range-certain branch predictions
	// invalidated by the demotion and re-derived from heuristics (per
	// function in staleCertainFn, by function index).
	demotedTop     int64
	staleCertain   int64
	staleCertainFn []int

	pass      int   // current 0-based pass, for diagnostics
	stats     Stats // counters accumulated over the run
	changed   bool  // some interprocedural table moved this pass
	cancelled bool
}

func newDriver(p *ir.Program, cfg Config) *driver {
	cgSpan := cfg.Trace.Start(cfg.TraceParent, "driver", "callgraph")
	cg := callgraph.Build(p)
	if cfg.Trace != nil {
		cfg.Trace.Annotate(cgSpan, "funcs", strconv.Itoa(cg.NumFuncs()))
		cfg.Trace.Annotate(cgSpan, "sccs", strconv.Itoa(len(cg.SCCs)))
		cfg.Trace.End(cgSpan)
	}
	n := cg.NumFuncs()
	d := &driver{
		prog:     p,
		cfg:      cfg,
		cg:       cg,
		ip:       newInterproc(p, cfg, cg),
		results:  make([]*FuncResult, n),
		prevIn:   make([][]vrange.Value, n),
		prevFP:   make([]uint64, n),
		poisoned: make([]bool, n),
		diags:    make([][]Diagnostic, n),
		rec:      cfg.Telemetry,
	}
	d.staleCertainFn = make([]int, n)
	d.scratch = make([]*engineScratch, n)
	if cfg.FuncStore != nil {
		d.bodyEnc = make([][]byte, n)
		d.bodyFPs = make([]uint64, n)
		d.configFP = configFingerprint(cfg)
	}
	if d.rec != nil {
		names := make([]string, n)
		for i, f := range cg.Funcs {
			names[i] = f.Name
		}
		d.rec.Begin(names)
	}
	pos := make([]int, n)
	for i, f := range callOrder(p) {
		pos[cg.Index[f]] = i
	}
	d.sccFuncs = make([][]int, len(cg.SCCs))
	for s, members := range cg.SCCs {
		ms := append([]int(nil), members...)
		sort.Slice(ms, func(a, b int) bool { return pos[ms[a]] < pos[ms[b]] })
		d.sccFuncs[s] = ms
	}
	return d
}

// run drives the outer fixpoint to convergence (or MaxPasses, or
// cancellation). A cancelled run returns a typed *AnalysisError carrying
// the partial stats; a run that exhausts MaxPasses without converging
// demotes every surviving optimistic ⊤ value to ⊥ (optimism is only sound
// at a fixed point) and records a non-convergence diagnostic per affected
// function.
func (d *driver) run(ctx context.Context) (*Result, error) {
	d.ctx = ctx
	res := &Result{Prog: d.prog, Funcs: make(map[*ir.Func]*FuncResult, len(d.prog.Funcs))}
	passes := d.cfg.MaxPasses
	if !d.cfg.Interprocedural || passes < 1 {
		passes = 1
	}
	for pass := 0; pass < passes; pass++ {
		if ctx.Err() != nil {
			d.cancelled = true
			break
		}
		d.pass = pass
		d.ip.beginPass(pass)
		d.stats.Passes++
		d.changed = false
		var passStart int64
		if d.rec != nil {
			passStart = d.rec.Now()
		}
		passSpan := telemetry.NoSpan
		if d.cfg.Trace != nil {
			passSpan = d.cfg.Trace.Start(d.cfg.TraceParent, "driver", "pass "+strconv.Itoa(pass))
		}
		for scc := range d.sccFuncs {
			if d.cancelled {
				break
			}
			d.runSCC(scc, passSpan)
		}
		if d.cfg.Trace != nil {
			d.cfg.Trace.Annotate(passSpan, "changed", strconv.FormatBool(d.changed))
			d.cfg.Trace.End(passSpan)
		}
		if d.rec != nil {
			d.rec.EndPass(passStart)
		}
		if d.cancelled || !d.changed {
			break
		}
	}
	d.stats.RecWidens = d.ip.recWidens
	res.Stats = d.stats
	if d.cancelled {
		diags := append(d.collectDiags(), Diagnostic{
			Kind: DiagCancelled,
			SCC:  -1,
			Pass: d.pass,
			Msg:  fmt.Sprintf("analysis cancelled: %v", ctx.Err()),
		})
		d.traceDiags(diags)
		return nil, &AnalysisError{Err: ctx.Err(), Stats: res.Stats, Diagnostics: diags}
	}
	res.Stats.Converged = !d.changed
	if !res.Stats.Converged {
		d.demoteUnconverged(res.Stats.Passes)
		res.Stats.StaleCertain = d.staleCertain
	}
	for i, f := range d.cg.Funcs {
		res.Funcs[f] = d.results[i]
	}
	res.Diagnostics = d.collectDiags()
	d.traceDiags(res.Diagnostics)
	d.finishTelemetry(res, passes)
	return res, nil
}

// traceDiags marks each diagnostic as a zero-duration diag span under
// the analysis span, named "kind func" ("kind" for whole-analysis
// events). The name carries the payload instead of span args: vrpd's
// flight recorder retains every non-converged request's tree, and an
// args map per mark would multiply its footprint.
func (d *driver) traceDiags(diags []Diagnostic) {
	if d.cfg.Trace == nil {
		return
	}
	for _, dg := range diags {
		name := dg.Kind.String()
		if dg.Func != "" {
			name += " " + dg.Func
		}
		d.cfg.Trace.Mark(d.cfg.TraceParent, "diag", name)
	}
}

// finishTelemetry attaches the aggregated snapshot to the result: the
// interprocedural boundary-drop count and the three histograms (range-set
// size, range span, per-function pass counts) that need IR-level context
// the telemetry package does not depend on.
func (d *driver) finishTelemetry(res *Result, maxPasses int) {
	if d.rec == nil {
		return
	}
	snap := d.rec.Snapshot()
	snap.BoundaryDrops = d.ip.drops

	setSize := telemetry.NewHistogram("range-set-size", "⊤", "⊥", "∅", "1", "2", "3", "4", "5+")
	span := telemetry.NewHistogram("range-span", "point", "≤8", "≤64", "≤512", "≤4096", ">4096", "symbolic")
	for _, fr := range d.results {
		if fr == nil {
			continue
		}
		for _, v := range fr.Val {
			observeValue(setSize, span, v)
		}
	}
	snap.RangeSetSize = setSize
	snap.RangeSpan = span

	labels := make([]string, maxPasses+1)
	for i := range labels {
		labels[i] = strconv.Itoa(i)
	}
	passRuns := telemetry.NewHistogram("pass-runs-per-func", labels...)
	for _, fm := range snap.Funcs {
		passRuns.Add(int(fm.Runs))
	}
	snap.PassRuns = passRuns

	q := d.buildQuality(snap)
	snap.Quality = q
	res.Quality = q
	res.Telemetry = snap
}

// qualityClassBucket maps a ValueClass to its index in
// telemetry.QualityClassLabels (point, narrow, wide, symbolic, top,
// bottom, infeasible).
func qualityClassBucket(c vrange.ValueClass) int {
	switch c {
	case vrange.ClassPoint:
		return 0
	case vrange.ClassNarrow:
		return 1
	case vrange.ClassWide:
		return 2
	case vrange.ClassSymbolic:
		return 3
	case vrange.ClassTop:
		return 4
	case vrange.ClassBottom:
		return 5
	}
	return 6 // ClassInfeasible
}

// buildQuality assembles the prediction-quality digest from the final
// results. It runs after the fixpoint (and after the non-convergence
// demotion), reads only final state, and consults Config.Evidence off
// the hot path — so the digest costs nothing when telemetry is off.
func (d *driver) buildQuality(snap *telemetry.Snapshot) *telemetry.Quality {
	q := telemetry.NewQuality()
	var widthSum float64
	var widthN int64
	for fi, f := range d.cg.Funcs {
		fr := d.results[fi]
		if fr == nil {
			continue
		}
		fq := telemetry.FuncQuality{Func: f.Name}
		for _, v := range fr.Val {
			c, w := vrange.Classify(v)
			q.Classes.Add(qualityClassBucket(c))
			fq.Cells++
			switch c {
			case vrange.ClassPoint:
				fq.Point++
			case vrange.ClassNarrow:
				fq.Narrow++
			case vrange.ClassWide:
				fq.Wide++
			case vrange.ClassSymbolic:
				fq.Symbolic++
			case vrange.ClassTop:
				fq.Top++
			case vrange.ClassBottom:
				fq.Bottom++
			case vrange.ClassInfeasible:
				fq.Infeasible++
			}
			if c == vrange.ClassPoint || c == vrange.ClassNarrow || c == vrange.ClassWide {
				q.Width.Add(telemetry.WidthBucket(w))
				widthSum += math.Log2(float64(w) + 1)
				widthN++
			}
		}
		var score float64
		for _, b := range f.Blocks {
			t := b.Terminator()
			if t == nil || t.Op != ir.OpBr {
				continue
			}
			p, ok := fr.BranchProb[t]
			src := fr.BranchSource[t]
			if !ok {
				p, src = 0.5, ByDefault
			}
			q.Branches++
			fq.Branches++
			q.Confidence.Add(telemetry.ConfidenceBucket(p))
			switch src {
			case ByRange:
				q.Evidence["range"]++
				fq.Range++
				if p == 0 || p == 1 {
					q.Certain++
					fq.Certain++
					score += 1.0
				} else {
					score += 0.7
				}
			case ByHeuristic:
				fq.Heuristic++
				score += 0.4
				if d.cfg.Evidence == nil {
					q.Evidence["heuristic"]++
					break
				}
				evs := d.cfg.Evidence(f, t)
				if len(evs) == 0 {
					q.Evidence["uniform"]++
					break
				}
				for _, ev := range evs {
					q.Evidence[ev.Name]++
				}
				if len(evs) >= 2 {
					q.Evidence["dempster-shafer"]++
				}
			default:
				q.Evidence["default"]++
				fq.Default++
			}
		}
		fq.StaleCertain = int64(d.staleCertainFn[fi])
		if fq.Branches > 0 {
			fq.Score = score / float64(fq.Branches)
		}
		q.Funcs = append(q.Funcs, fq)
	}
	q.Loss["widen"] = snap.Totals.Widens
	q.Loss["recursion-pin"] = d.ip.recWidens
	q.Loss["demotion"] = d.demotedTop
	q.Loss["phi-hull"] = snap.Totals.PhiHulls
	// assert-tighten counts precision *gained* (the ledger's negative
	// entry); it is stored positive so metric counters stay monotone.
	q.Loss["assert-tighten"] = snap.Totals.AssertTightens
	q.StaleCertain = d.staleCertain
	if q.Branches > 0 {
		q.CertainRatio = float64(q.Certain) / float64(q.Branches)
	}
	if widthN > 0 {
		q.MeanLog2Width = widthSum / float64(widthN)
	}
	return q
}

// observeValue buckets one final register value into the range-set-size
// and range-span histograms.
func observeValue(setSize, span *telemetry.Histogram, v vrange.Value) {
	switch {
	case v.IsTop():
		setSize.Add(0)
		return
	case v.IsBottom():
		setSize.Add(1)
		return
	case v.IsInfeasible():
		setSize.Add(2)
		return
	}
	setSize.Add(2 + len(v.Ranges)) // "1" is bucket 3

	width, symbolic := int64(0), false
	for _, r := range v.Ranges {
		w, ok := r.Hi.Diff(r.Lo)
		if !ok {
			symbolic = true
			break
		}
		if w > width {
			width = w
		}
	}
	switch {
	case symbolic:
		span.Add(6)
	case width == 0:
		span.Add(0)
	case width <= 8:
		span.Add(1)
	case width <= 64:
		span.Add(2)
	case width <= 512:
		span.Add(3)
	case width <= 4096:
		span.Add(4)
	default:
		span.Add(5)
	}
}

// collectDiags flattens the per-function diagnostic slots in
// function-index order.
func (d *driver) collectDiags() []Diagnostic {
	var out []Diagnostic
	for _, ds := range d.diags {
		out = append(out, ds...)
	}
	return out
}

// demoteUnconverged applies the non-convergence contract: any ⊤ a
// function still reports after MaxPasses is an optimistic assumption that
// was never validated, so it is demoted to ⊥ (Wegman–Zadeck optimism is
// only sound at a fixed point) and the function gets a DiagNonConvergence
// diagnostic. Branch probabilities in demoted functions DO need patching:
// the final engine run computed them from ranges that were still moving,
// so a range-certain P ∈ {0, 1} there is an unvalidated claim that one
// side never runs. redoStalePredictions re-derives those from heuristic
// evidence only and re-solves the function's edge frequencies.
func (d *driver) demoteUnconverged(passes int) {
	for fi, fr := range d.results {
		if fr == nil {
			continue
		}
		demoted := 0
		for j, v := range fr.Val {
			if v.IsTop() {
				fr.Val[j] = vrange.DemoteTop(v)
				demoted++
			}
		}
		if demoted > 0 {
			stale := d.redoStalePredictions(fi, fr)
			d.demotedTop += int64(demoted)
			d.staleCertain += int64(stale)
			msg := fmt.Sprintf("fixpoint not reached after %d pass(es): %d optimistic ⊤ value(s) demoted to ⊥",
				passes, demoted)
			if stale > 0 {
				msg += fmt.Sprintf("; %d stale range-certain prediction(s) re-derived from heuristics", stale)
			}
			d.diags[fi] = append(d.diags[fi], Diagnostic{
				Kind: DiagNonConvergence,
				Func: fr.Fn.Name,
				SCC:  d.cg.SCCID[fi],
				Pass: d.pass,
				Msg:  msg,
			})
		}
	}
}

// redoStalePredictions replaces every range-certain (P ∈ {0, 1},
// Source == ByRange) prediction in a demoted function with the heuristic
// fallback: certainty derived from ranges that never reached a fixpoint
// is not evidence that a branch side is dead. Softer range predictions
// are kept — they degrade gracefully — but certainty is all-or-nothing.
// When any prediction changes, the function's edge frequencies are
// re-solved from the patched probabilities so downstream consumers stay
// consistent with what is now claimed. Returns the number of patched
// predictions (also recorded per function for the quality snapshot).
func (d *driver) redoStalePredictions(fi int, fr *FuncResult) int {
	f := fr.Fn
	stale := 0
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpBr {
			continue
		}
		p, ok := fr.BranchProb[t]
		if !ok || fr.BranchSource[t] != ByRange || (p != 0 && p != 1) {
			continue
		}
		np := 0.5
		if d.cfg.Fallback != nil {
			np = d.cfg.Fallback(f, t)
		}
		fr.BranchProb[t] = np
		fr.BranchSource[t] = ByHeuristic
		stale++
	}
	if stale == 0 {
		return 0
	}
	tree := dom.New(f)
	loops := dom.FindLoops(f, tree)
	sol := freq.Compute(f, tree, loops, func(br *ir.Instr) (float64, bool) {
		p, ok := fr.BranchProb[br]
		return p, ok
	})
	for i, v := range sol.Edge {
		if v > d.cfg.MaxFreq {
			sol.Edge[i] = d.cfg.MaxFreq
		}
	}
	fr.EdgeFreq = sol.Edge
	d.staleCertainFn[fi] = stale
	return stale
}

// runSCC analyzes one SCC's functions in call order (mutual recursion
// needs each member to observe the previous member's update within the
// pass), with a fresh calc per function so sub-operation counts are exact.
// Each engine run is panic-isolated: a panic (or an exhausted step budget)
// degrades that one function to the ⊥/heuristic fallback and quarantines
// it, instead of killing the process. passSpan parents the per-function
// engine/splice spans and skip marks.
//
// A function that is not skipped ends in one of five outcomes — spliced
// from the store, ok, degraded:panic, degraded:step-budget or cancelled —
// and every outcome shares one close-out for results, counters and spans.
func (d *driver) runSCC(scc int, passSpan telemetry.SpanID) {
	for _, fi := range d.sccFuncs[scc] {
		if d.poisoned[fi] {
			continue // quarantined: degraded result is already a fixpoint
		}
		if d.ctx != nil && d.ctx.Err() != nil {
			d.cancelled = true
			break
		}
		f := d.cg.Funcs[fi]
		calc := vrange.NewCalc(d.cfg.Range)
		in := d.computeInputs(fi, calc)
		if !d.cfg.noSkip && d.results[fi] != nil && d.prevIn[fi] != nil &&
			in.hash == d.prevFP[fi] && bitEqualVec(in.vec, d.prevIn[fi]) {
			// Clean: the previous run saw bit-identical inputs, so a re-run
			// would reproduce the stored result and table updates exactly.
			d.stats.FuncsSkipped++
			d.stats.SubOps += calc.SubOps
			if d.rec != nil {
				d.rec.Skip(fi)
			}
			d.cfg.Trace.Mark(passSpan, "skip", f.Name)
			continue
		}

		var (
			span    = telemetry.NoSpan
			outcome string
			fr      *FuncResult
			bf      func(*ir.Block) float64
			effort  Stats // engine work replayed into the stats; calc.SubOps is added at close-out
			diag    *Diagnostic
			eng     *engine
			rm      *telemetry.RunMetrics
		)
		// Cross-request store: a hit with a confirmed key (same body, same
		// callee binding, bit-equal inputs, same config) replays a prior
		// run's outputs — by the same determinism argument as the skip
		// above, a fresh engine run would reproduce them bit for bit. The
		// interprocedural update and the effort counters are replayed too,
		// so downstream passes and reported Stats match a cold run exactly.
		var sKey *FuncKey
		if d.cfg.FuncStore != nil {
			sKey = d.funcKey(fi, in)
			if sf, ok := d.cfg.FuncStore.Lookup(sKey); ok {
				span = d.cfg.Trace.Start(passSpan, "splice", f.Name)
				if fr, bf, ok = d.spliceStored(fi, sf); ok {
					outcome = "spliced"
					effort = Stats{ExprEvals: sf.ExprEvals, PhiEvals: sf.PhiEvals, FlowVisits: sf.FlowVisits,
						DerivedLoops: sf.DerivedLoops, FailedDerives: sf.FailedDerives, SubOps: sf.SubOps}
				} else {
					// Confirmed lookup that failed reconstruction: the engine
					// runs below; close the splice span so the trace shows the
					// attempt without claiming the time.
					d.cfg.Trace.Annotate(span, "outcome", "fallthrough")
					d.cfg.Trace.End(span)
				}
			}
		}
		if outcome != "spliced" {
			if d.rec != nil {
				rm = d.rec.StartRun()
			}
			span = d.cfg.Trace.Start(passSpan, "engine", f.Name)
			subOps0 := calc.SubOps
			var panicked any
			eng, panicked = d.runEngine(fi, calc, in, rm)
			switch {
			case panicked != nil:
				outcome = "degraded:panic"
				diag = &Diagnostic{Kind: DiagPanic, Func: f.Name, SCC: scc, Pass: d.pass,
					Msg: fmt.Sprintf("engine panicked: %v", panicked), PanicValue: panicked}
			case eng.abort == abortCancelled:
				outcome = "cancelled"
			case eng.abort == abortStepBudget:
				// The aborted engine's partial work still happened; count it
				// so Stats stay an honest account of effort spent.
				outcome, effort = "degraded:step-budget", eng.stats
				diag = &Diagnostic{Kind: DiagStepBudget, Func: f.Name, SCC: scc, Pass: d.pass,
					Msg: fmt.Sprintf("engine exceeded MaxEngineSteps=%d after %d steps; result degraded to ⊥",
						d.cfg.MaxEngineSteps, eng.steps)}
			default:
				outcome, effort = "ok", eng.stats
				fr, bf = eng.result(), eng.blockFreq
				if sKey != nil {
					// Record before ip.update so SubOps covers the engine alone;
					// the splice path re-executes the update live and counts
					// its own.
					d.cfg.FuncStore.Store(sKey,
						encodeStored(f, fr, eng.blkFreq, eng.stats, calc.SubOps-subOps0))
				}
			}
			if diag != nil {
				fr, bf = d.fallback(fi)
			}
		}

		// Close-out. A cancelled run is discarded: no result, no counters.
		if outcome != "cancelled" {
			d.results[fi] = fr
			if d.ip.update(fi, fr.Val, bf, calc) {
				d.changed = true
			}
			if diag != nil {
				// Quarantine: the degraded contribution is already a fixpoint.
				d.poisoned[fi] = true
				d.prevIn[fi] = nil
				d.diags[fi] = append(d.diags[fi], *diag)
				d.stats.FuncsDegraded++
			} else {
				d.prevIn[fi] = in.vec
				d.prevFP[fi] = in.hash
			}
			if outcome == "spliced" {
				d.stats.FuncsSpliced++
			}
			d.stats.FuncsAnalyzed++
			d.stats.addEffort(&effort)
			d.stats.SubOps += calc.SubOps
		}
		if d.cfg.Trace != nil {
			if outcome != "spliced" { // a splice span's category is its outcome
				d.cfg.Trace.Annotate(span, "outcome", outcome)
			}
			if eng != nil {
				d.cfg.Trace.Annotate(span, "steps", strconv.FormatInt(eng.steps, 10))
			}
			d.cfg.Trace.End(span)
		}
		if rm != nil {
			if eng != nil { // nil after a panic: the engine (and its stats) were discarded
				rm.DeriveHits = eng.stats.DerivedLoops
				rm.DeriveMiss = eng.stats.FailedDerives
				rm.Steps = eng.steps
			}
			rm.AddWidens(calc.Widens)
			d.rec.EndRun(fi, rm, outcome)
		}
		if outcome == "cancelled" {
			d.cancelled = true
			break
		}
		if outcome == "ok" {
			eng.recycle()
		}
	}
}

// runEngine runs one function's engine inside a recover barrier. On panic
// it returns (nil, recovered-value); the partially mutated engine is
// discarded (rm keeps whatever the run recorded up to the panic). When
// telemetry is on, the run carries pprof labels so CPU profiles attribute
// samples to the function and pass under analysis.
func (d *driver) runEngine(fi int, calc *vrange.Calc, in *funcInputs, rm *telemetry.RunMetrics) (eng *engine, panicked any) {
	defer func() {
		if r := recover(); r != nil {
			eng, panicked = nil, r
		}
	}()
	run := func() {
		sc := d.scratch[fi]
		if sc == nil {
			sc = newEngineScratch(d.cg.Funcs[fi])
			d.scratch[fi] = sc
		}
		eng = newEngine(d.ctx, d.cg.Funcs[fi], d.cfg, calc, d.prog, in, rm, sc)
		eng.run()
	}
	if rm != nil {
		ctx := d.ctx
		if ctx == nil {
			ctx = context.Background()
		}
		pprof.Do(ctx, pprof.Labels(
			"vrp_func", d.cg.Funcs[fi].Name,
			"vrp_pass", strconv.Itoa(d.pass),
		), func(context.Context) { run() })
	} else {
		run()
	}
	return eng, nil
}

// fallback builds fi's degraded ⊥/heuristic result and the clamped
// block-frequency function the interprocedural update folds it in with
// (callers must see ⊥, not a stale optimistic range).
func (d *driver) fallback(fi int) (*FuncResult, func(*ir.Block) float64) {
	f := d.cg.Funcs[fi]
	fr, blkFreq := degradedResult(f, d.cfg)
	return fr, func(b *ir.Block) float64 {
		if b == f.Entry {
			return 1
		}
		s := blkFreq[b.ID]
		if s > d.cfg.MaxFreq {
			return d.cfg.MaxFreq
		}
		return s
	}
}

// computeInputs snapshots fi's interprocedural inputs and fingerprints
// them. Merge sub-operations accrue to calc.
func (d *driver) computeInputs(fi int, calc *vrange.Calc) *funcInputs {
	f := d.cg.Funcs[fi]
	callees := d.cg.Callees[fi]
	in := &funcInputs{
		params: make([]vrange.Value, len(f.Params)),
		vec:    make([]vrange.Value, 0, len(f.Params)+len(callees)),
	}
	for i := range in.params {
		in.params[i] = d.ip.paramValue(fi, i, calc)
	}
	in.vec = append(in.vec, in.params...)
	if len(callees) > 0 {
		in.rets = make(map[*ir.Func]vrange.Value, len(callees))
		for _, ci := range callees {
			rv := d.ip.returnValue(ci)
			in.rets[d.cg.Funcs[ci]] = rv
			in.vec = append(in.vec, rv)
		}
	}
	in.hash = vrange.HashValues(in.vec)
	return in
}

// bitEqualVec confirms a fingerprint match exactly, making hash collisions
// harmless.
func bitEqualVec(a, b []vrange.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].BitEqual(b[i]) {
			return false
		}
	}
	return true
}
