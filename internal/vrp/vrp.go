// Package vrp implements the paper's primary contribution: value range
// propagation over SSA form, producing a branch probability for every
// conditional branch in the program (§3).
//
// The engine is the Wegman–Zadeck two-worklist propagator (FlowWorkList of
// CFG edges + SSAWorkList of def-use edges) extended as §3.3 describes:
// weighted range sets instead of constants, φ evaluation weighted by
// in-edge probabilities, per-edge probabilities instead of executable
// flags, and special handling of loop-carried expressions by derivation
// template matching (§3.6). Interprocedural propagation uses jump
// functions (§3.7): formal parameter values are the weighted merge of
// actual argument ranges across call sites, and return ranges flow back to
// call instructions.
package vrp

import (
	"context"
	"fmt"
	"sort"

	"vrp/internal/ir"
	"vrp/internal/telemetry"
	"vrp/internal/vrange"
)

// FallbackFunc supplies a heuristic probability for the true out-edge of a
// conditional branch whose controlling range is ⊥ (§3.5: "heuristics
// similar to those in [BallLarus93] must be used").
type FallbackFunc func(f *ir.Func, br *ir.Instr) float64

// EvidenceItem names one heuristic that contributed to a fallback
// probability, with the single-heuristic probability it argued for.
type EvidenceItem struct {
	Name string
	Prob float64
}

// EvidenceFunc explains a fallback prediction for the quality telemetry:
// the individual heuristics (by name) that fired on a branch. It is
// consulted only while the driver builds the quality snapshot — never on
// the engine hot path — and only for branches whose probability came from
// Config.Fallback.
type EvidenceFunc func(f *ir.Func, br *ir.Instr) []EvidenceItem

// Config controls an analysis run. The zero value is not useful; start
// from DefaultConfig.
type Config struct {
	Range vrange.Config

	// Derivation enables loop-carried derivation templates (§3.6). When
	// off, loop ranges are found by brute-force propagation ("simply allow
	// the propagation algorithm to determine the value range by executing
	// the loop"), bounded by MaxEvals.
	Derivation bool

	// Interprocedural enables jump functions and return ranges (§3.7).
	Interprocedural bool

	// MaxPasses bounds the outer interprocedural fixpoint.
	MaxPasses int

	// RecWidenAfter enables return/argument widening on recursive call
	// graph cycles: a return range or same-SCC argument slot that is
	// still moving after this many interprocedural passes is pinned, and
	// every subsequent value for it is widened to a single hull range
	// clamped into ±Range.AssumedVarValue. This trades the tail of the
	// descending chain for a guaranteed fixpoint on recursions (such as
	// ackermann) whose argument ranges would otherwise keep shifting
	// until MaxPasses gives up. DefaultConfig sets MaxPasses-2, leaving
	// the first passes exact and widening only stragglers; 0 disables
	// widening entirely.
	RecWidenAfter int

	// MaxEvals is the per-instruction evaluation budget before the engine
	// widens the result to ⊥ — the practical give-up point that keeps
	// brute-force loop execution from dominating runtime.
	MaxEvals int

	// FlowFirst prefers the FlowWorkList when both lists are non-empty;
	// the paper observes this "tends to cause information to be gathered
	// more quickly" (§3.3 step 2).
	FlowFirst bool

	// Fallback predicts ⊥-controlled branches; nil means 0.5.
	Fallback FallbackFunc

	// Evidence attributes fallback predictions to individual heuristics
	// for the quality snapshot (see EvidenceFunc). nil — the default —
	// attributes every heuristic branch to the generic "heuristic" key.
	Evidence EvidenceFunc

	// FreqEpsilon is the relative change threshold under which an edge
	// frequency update is not considered a change (termination control
	// for the frequency feedback around loops).
	FreqEpsilon float64

	// MaxFreq caps edge frequencies (relative to one function entry).
	MaxFreq float64

	// Workers is ignored: the driver runs one sequential schedule.
	// perfbench is its only setter.
	Workers int

	// MaxEngineSteps bounds the worklist items one engine run may process
	// (0 = unlimited). A function that exhausts the budget has its result
	// degraded to ⊥ with heuristic-only branch probabilities and a
	// DiagStepBudget diagnostic, instead of spinning — the pathological
	// function pays, the rest of the program is analyzed exactly.
	MaxEngineSteps int

	// Ctx optionally carries a cancellation context into Analyze; nil
	// means context.Background(). AnalyzeContext overrides it.
	Ctx context.Context

	// FuncStore, when non-nil, is consulted before every engine run and
	// populated after every successful one: a cross-request per-function
	// result store keyed on (body fingerprint × interprocedural-input
	// fingerprint × config fingerprint) with full-key confirmation on
	// every hit (see store.go). A confirmed hit splices the stored
	// FuncResult instead of re-running the engine — bit-identical to a
	// cold run, including replayed effort Stats. The store must only be
	// shared between runs with an identical Config.
	FuncStore FuncStore

	// Telemetry, when non-nil, collects per-function counters, pass
	// wall times and histograms for the run; the aggregated snapshot is
	// attached to Result.Telemetry. A Recorder serves one analysis run
	// at a time (the driver resets it via Begin). nil — the default —
	// disables collection at zero cost on the engine hot path.
	Telemetry *telemetry.Recorder

	// Trace, when non-nil, receives the run's request-scoped span tree:
	// a "callgraph" span for condensation, one span per fixpoint pass,
	// one per engine run and one per store splice under their pass,
	// zero-duration "skip" marks under the pass that skipped a
	// function, and one zero-duration "diag" mark per
	// diagnostic, all parented under TraceParent. Unlike Telemetry,
	// spans carry only wall-clock timings and labels — nothing reads
	// them back, so tracing can never perturb analysis results. nil —
	// the default — disables tracing at zero cost on the hot path.
	Trace *telemetry.Trace

	// TraceParent is the span the driver hangs its spans under (the
	// server's per-request "vrp" phase span); telemetry.NoSpan roots
	// them at the top of the trace.
	TraceParent telemetry.SpanID

	// noSkip disables the driver's dirty-set work skipping (test-only: the
	// skip-soundness tests compare a full re-analysis against the
	// incremental schedule bit for bit).
	noSkip bool

	// testHookEngineRun, when set, is called at the start of every engine
	// run with the function under analysis (test-only: panic and
	// cancellation injection for the failure-path tests).
	testHookEngineRun func(f *ir.Func)
}

// DefaultConfig returns the paper-faithful configuration.
func DefaultConfig() Config {
	return Config{
		Range:           vrange.DefaultConfig(),
		Derivation:      true,
		Interprocedural: true,
		MaxPasses:       8,
		RecWidenAfter:   6, // MaxPasses - 2: exact early passes, widened stragglers
		MaxEvals:        12,
		FlowFirst:       true,
		FreqEpsilon:     1e-4,
		MaxFreq:         1e6,
		TraceParent:     telemetry.NoSpan,
	}
}

// Stats instruments the engine for the paper's Figures 5 and 6.
type Stats struct {
	ExprEvals     int64 // expression evaluations (Figure 5)
	SubOps        int64 // evaluation sub-operations (Figure 6)
	PhiEvals      int64
	FlowVisits    int64
	DerivedLoops  int64
	FailedDerives int64
	Passes        int

	// FuncsAnalyzed counts engine runs across all passes; FuncsSkipped
	// counts the re-analyses the driver's dirty set proved unnecessary
	// (bit-identical interprocedural inputs since the last run).
	FuncsAnalyzed int64
	FuncsSkipped  int64

	// FuncsSpliced counts the subset of FuncsAnalyzed served by splicing
	// a Config.FuncStore entry instead of running the engine (spliced
	// runs replay the stored run's effort into the other counters, so
	// every Stats field except this one matches a cold run bit for bit).
	FuncsSpliced int64

	// Converged reports that the interprocedural fixpoint actually
	// reached a fixed point within MaxPasses. When false, every surviving
	// optimistic ⊤ value has been demoted to ⊥ in the reported results
	// (optimism is only sound at a fixed point) and the affected
	// functions carry DiagNonConvergence diagnostics.
	Converged bool

	// FuncsDegraded counts functions whose engine panicked or exceeded
	// MaxEngineSteps and whose results were replaced by the ⊥/heuristic
	// fallback.
	FuncsDegraded int64

	// RecWidens counts the interprocedural slots (return ranges and
	// same-SCC argument positions) pinned by recursion widening
	// (Config.RecWidenAfter). Zero when the feature is off.
	RecWidens int64

	// StaleCertain counts range-certain (P ∈ {0, 1}) predictions that
	// were invalidated by the non-convergence ⊤→⊥ demotion and re-derived
	// from heuristics. Always 0 on converged runs.
	StaleCertain int64
}

// PredictionSource says how a branch probability was obtained.
type PredictionSource int

// Prediction sources.
const (
	ByRange     PredictionSource = iota // from the variable's value range
	ByHeuristic                         // fallback (controlling range was ⊥)
	ByDefault                           // never evaluated (unreachable or ⊤)
)

func (s PredictionSource) String() string {
	switch s {
	case ByRange:
		return "range"
	case ByHeuristic:
		return "heuristic"
	}
	return "default"
}

// Branch is one conditional branch's prediction.
type Branch struct {
	Fn     *ir.Func
	Instr  *ir.Instr // the OpBr
	Prob   float64   // probability of the true out-edge
	Source PredictionSource
}

// FuncResult holds per-function analysis output.
type FuncResult struct {
	Fn  *ir.Func
	Val []vrange.Value // per register

	// EdgeFreq is the expected executions of each edge per invocation of
	// the function (entry = 1); Edge.ID-indexed.
	EdgeFreq []float64

	// BranchProb maps each OpBr to its true-edge probability.
	BranchProb map[*ir.Instr]float64
	// BranchSource records how each probability was obtained.
	BranchSource map[*ir.Instr]PredictionSource

	// Derived marks the loop-carried φs whose value came from a §3.6
	// derivation template (rather than weighted merging) in the
	// function's final engine run; provenance for ExplainBranch.
	Derived map[*ir.Instr]bool

	// Degraded marks a function whose engine panicked or ran out of step
	// budget: Val is all ⊥ and every branch probability is heuristic.
	Degraded bool
}

// Result is a whole-program analysis result.
type Result struct {
	Prog  *ir.Program
	Funcs map[*ir.Func]*FuncResult
	Stats Stats

	// Diagnostics records every failure-path event of the run
	// (non-convergence demotions, panics, step-budget degradations), in
	// deterministic order: function index, then pass.
	Diagnostics []Diagnostic

	// Telemetry is the aggregated instrumentation snapshot when
	// Config.Telemetry was set, nil otherwise. Everything in it except
	// wall-clock durations is bit-identical run to run.
	Telemetry *telemetry.Snapshot

	// Quality is the prediction-quality digest (the same object as
	// Telemetry.Quality) when Config.Telemetry was set, nil otherwise.
	// Fully deterministic.
	Quality *telemetry.Quality
}

// Branches returns every conditional branch prediction in deterministic
// order (function order, block order).
func (r *Result) Branches() []Branch {
	var out []Branch
	for _, f := range r.Prog.Funcs {
		fr := r.Funcs[f]
		if fr == nil {
			continue
		}
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
			out = append(out, Branch{Fn: f, Instr: t, Prob: p, Source: src})
		}
	}
	return out
}

// Analyze runs value range propagation over an SSA-form program. The
// interprocedural fixpoint is scheduled by the incremental driver (see
// driver.go): passes over the call graph condensation in SCC order, with
// dirty-set skipping of functions whose interprocedural inputs did not
// change since their last run. Cancellation comes from Config.Ctx
// (nil = background); see AnalyzeContext.
func Analyze(p *ir.Program, cfg Config) (*Result, error) {
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	return AnalyzeContext(ctx, p, cfg)
}

// AnalyzeContext is Analyze under an explicit context. Cancellation is
// observed between functions and, inside a single engine, every few
// hundred worklist steps; a cancelled run returns a typed *AnalysisError
// carrying the partial stats and diagnostics (errors.Is(err,
// context.Canceled) holds). ctx takes precedence over cfg.Ctx.
func AnalyzeContext(ctx context.Context, p *ir.Program, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for _, f := range p.Funcs {
		if !f.SSA {
			return nil, fmt.Errorf("vrp: function %s is not in SSA form", f.Name)
		}
	}
	return newDriver(p, cfg).run(ctx)
}

// callOrder returns functions roughly callers-before-callees starting at
// main, so parameter seeds are available early; unreached functions come
// last in name order. The preorder DFS runs on an explicit stack so deep
// call chains cannot overflow the goroutine stack.
func callOrder(p *ir.Program) []*ir.Func {
	var order []*ir.Func
	seen := map[*ir.Func]bool{}
	// cursor is a suspended scan of one function's instructions.
	type cursor struct {
		f     *ir.Func
		block int
		instr int
	}
	if m := p.Main(); m != nil {
		seen[m] = true
		order = append(order, m)
		stack := []cursor{{f: m}}
		for len(stack) > 0 {
			cur := &stack[len(stack)-1]
			f := cur.f
			pushed := false
		scan:
			for cur.block < len(f.Blocks) {
				b := f.Blocks[cur.block]
				for cur.instr < len(b.Instrs) {
					in := b.Instrs[cur.instr]
					cur.instr++
					if in.Op != ir.OpCall {
						continue
					}
					callee := p.ByName[in.Callee]
					if callee == nil || seen[callee] {
						continue
					}
					// First call of an unseen function: preorder-append it
					// and descend (the parent cursor resumes afterwards).
					seen[callee] = true
					order = append(order, callee)
					stack = append(stack, cursor{f: callee})
					pushed = true
					break scan
				}
				cur.block++
				cur.instr = 0
			}
			if !pushed {
				stack = stack[:len(stack)-1]
			}
		}
	}
	rest := make([]*ir.Func, 0)
	for _, f := range p.Funcs {
		if !seen[f] {
			rest = append(rest, f)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].Name < rest[j].Name })
	return append(order, rest...)
}
