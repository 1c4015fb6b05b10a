package vrp

import "testing"

// The Stats tests pin every counter against small programs whose engine
// schedule can be worked out by hand, so a regression in any counter's
// placement (not just its magnitude) fails loudly. The derivations below
// follow the SSA IR the front end emits; dump it with
// `compile(t, src).String()` when updating a program.

// TestStatsStraightLine hand-computes every field for a single basic
// block. The SSA IR of the program is
//
//	b0:  r9  = const 3        ; a = 3
//	     r10 = r9             ; a.0
//	     r11 = r10
//	     r12 = const 4
//	     r13 = r11 + r12      ; a + 4
//	     r14 = r13            ; b.0
//	     r15 = r14
//	     print r15
//	     r16 = const 0
//	     ret r16
//
// Pass 0 analyzes main once: the first block visit evaluates the 8
// value-producing instructions in order (ExprEvals 8); each lowering from
// ⊤ pushes the value's uses onto the SSA worklist, and draining it
// re-evaluates the 5 instructions downstream of a change (r10, r11, r13,
// r14, r15) — their values are already final, so nothing propagates
// further. ExprEvals = 8 + 5 = 13. SubOps: the one OpBin (r13) costs one
// range-pair evaluation per evaluation (2), plus the return-range merge of
// {0} in the interprocedural update (1) = 3. The updated return range
// marks the pass changed, so pass 1 runs, finds main's inputs
// bit-identical, and skips it: Passes = 2, FuncsAnalyzed = 1,
// FuncsSkipped = 1, converged with nothing degraded.
func TestStatsStraightLine(t *testing.T) {
	src := `
func main() {
	var a = 3;
	var b = a + 4;
	print(b);
}
`
	res := analyze(t, src, DefaultConfig())
	want := Stats{
		ExprEvals:     13,
		SubOps:        3,
		PhiEvals:      0,
		FlowVisits:    1,
		DerivedLoops:  0,
		FailedDerives: 0,
		Passes:        2,
		FuncsAnalyzed: 1,
		FuncsSkipped:  1,
		Converged:     true,
		FuncsDegraded: 0,
	}
	if res.Stats != want {
		t.Errorf("Stats = %+v\nwant %+v", res.Stats, want)
	}
	if len(res.Diagnostics) != 0 {
		t.Errorf("unexpected diagnostics: %v", res.Diagnostics)
	}
}

// TestStatsInterprocedural covers the caller/callee schedule. main is
// SCC 0, double SCC 1. Pass 0 analyzes main (seeing double's
// optimistic ⊤ return) and then double with the argument {21}; double's
// return lowers to {42}, marking the pass changed. Pass 1 re-analyzes
// main — its frozen callee-return input changed — while double's inputs
// are bit-identical and it is skipped. Nothing changes, so the fixpoint
// converges at Passes = 2 with FuncsAnalyzed = 3 (main twice, double
// once) and FuncsSkipped = 1. FlowVisits: main has one block visited once
// per run (2), double one block (1) = 3.
func TestStatsInterprocedural(t *testing.T) {
	src := `
func double(x) {
	return x + x;
}
func main() {
	print(double(21));
}
`
	res := analyze(t, src, DefaultConfig())
	s := res.Stats
	if s.Passes != 2 || s.FuncsAnalyzed != 3 || s.FuncsSkipped != 1 {
		t.Errorf("schedule: passes=%d analyzed=%d skipped=%d, want 2/3/1", s.Passes, s.FuncsAnalyzed, s.FuncsSkipped)
	}
	if s.FlowVisits != 3 {
		t.Errorf("FlowVisits = %d, want 3", s.FlowVisits)
	}
	if !s.Converged || s.FuncsDegraded != 0 || s.DerivedLoops != 0 || s.FailedDerives != 0 {
		t.Errorf("flags: %+v", s)
	}
}

// TestStatsLoop pins the derivation counters on a counted loop: the two
// loop-carried φs (i and s) both match a §3.6 template, each counted once
// (DerivedLoops = 2, FailedDerives = 0), and PhiEvals counts every φ
// evaluation, not just the derived ones.
func TestStatsLoop(t *testing.T) {
	src := `
func main() {
	var s = 0;
	for (var i = 0; i < 10; i++) {
		s = s + 1;
	}
	print(s);
}
`
	res := analyze(t, src, DefaultConfig())
	s := res.Stats
	if s.DerivedLoops != 2 || s.FailedDerives != 0 {
		t.Errorf("derivation: hits=%d misses=%d, want 2 and 0", s.DerivedLoops, s.FailedDerives)
	}
	if s.PhiEvals < s.DerivedLoops {
		t.Errorf("PhiEvals = %d < DerivedLoops = %d", s.PhiEvals, s.DerivedLoops)
	}
	if !s.Converged || s.Passes != 2 || s.FuncsAnalyzed != 1 || s.FuncsSkipped != 1 {
		t.Errorf("schedule: %+v", s)
	}
}

// TestStatsNonConverged exercises the demotion path: a mutually recursive
// SCC needs more passes than the budget allows, so the run reports
// Converged = false, every function's surviving optimistic ⊤ is demoted
// to ⊥, and each affected function carries a DiagNonConvergence
// diagnostic recorded at the final pass.
func TestStatsNonConverged(t *testing.T) {
	src := `
func even(n) {
	if (n == 0) { return 1; }
	return odd(n - 1);
}
func odd(n) {
	if (n == 0) { return 0; }
	return even(n - 1);
}
func main() {
	print(even(20));
}
`
	cfg := DefaultConfig()
	cfg.MaxPasses = 3
	res := analyze(t, src, cfg)
	s := res.Stats
	if s.Converged {
		t.Fatal("expected non-convergence under MaxPasses=3")
	}
	if s.Passes != 3 {
		t.Errorf("Passes = %d, want the full budget 3", s.Passes)
	}
	if s.FuncsDegraded != 0 {
		t.Errorf("FuncsDegraded = %d: non-convergence must not count as degradation", s.FuncsDegraded)
	}
	// Demotion: no reported value may remain ⊤.
	for f, fr := range res.Funcs {
		for i, v := range fr.Val {
			if v.IsTop() {
				t.Errorf("%s r%d still ⊤ after non-converged run", f.Name, i)
			}
		}
	}
	// One diagnostic per affected function, at the final (0-based) pass.
	byFunc := map[string]int{}
	for _, d := range res.Diagnostics {
		if d.Kind != DiagNonConvergence {
			t.Errorf("unexpected diagnostic kind %v", d.Kind)
			continue
		}
		if d.Pass != 2 {
			t.Errorf("diagnostic pass = %d, want 2", d.Pass)
		}
		byFunc[d.Func]++
	}
	for _, fn := range []string{"even", "odd", "main"} {
		if byFunc[fn] != 1 {
			t.Errorf("func %s has %d non-convergence diagnostics, want 1", fn, byFunc[fn])
		}
	}
}

// TestStatsDegraded pins the step-budget path: with MaxEngineSteps = 1
// the single function exceeds its budget on the first run, is degraded
// (FuncsDegraded = 1) and quarantined — pass 1 then has nothing to do
// (not even a skip) and the degraded result is accepted as the fixpoint.
// FuncsAnalyzed still counts the degraded attempt.
func TestStatsDegraded(t *testing.T) {
	src := `
func main() {
	var s = 0;
	for (var i = 0; i < 10; i++) {
		s = s + 1;
	}
	print(s);
}
`
	cfg := DefaultConfig()
	cfg.MaxEngineSteps = 1
	res := analyze(t, src, cfg)
	s := res.Stats
	if s.FuncsDegraded != 1 || s.FuncsAnalyzed != 1 || s.FuncsSkipped != 0 {
		t.Errorf("degraded=%d analyzed=%d skipped=%d, want 1/1/0", s.FuncsDegraded, s.FuncsAnalyzed, s.FuncsSkipped)
	}
	if !s.Converged || s.Passes != 2 {
		t.Errorf("converged=%v passes=%d, want true/2", s.Converged, s.Passes)
	}
	if len(res.Diagnostics) != 1 || res.Diagnostics[0].Kind != DiagStepBudget {
		t.Fatalf("diagnostics = %v, want one step-budget entry", res.Diagnostics)
	}
	fr := res.Funcs[res.Prog.ByName["main"]]
	if fr == nil || !fr.Degraded {
		t.Fatal("main's result not marked degraded")
	}
}

// TestStatsBounded guards the engine's near-linear behaviour (§4): the
// paper example is ~60 instructions and must settle within a small
// constant factor of that in evaluations and visits.
func TestStatsBounded(t *testing.T) {
	res := analyze(t, paperExample, DefaultConfig())
	if res.Stats.ExprEvals > 500 {
		t.Errorf("ExprEvals = %d, expected < 500", res.Stats.ExprEvals)
	}
	if res.Stats.FlowVisits > 500 {
		t.Errorf("FlowVisits = %d, expected < 500", res.Stats.FlowVisits)
	}
	if res.Stats.SubOps > 5000 {
		t.Errorf("SubOps = %d, expected < 5000", res.Stats.SubOps)
	}
	if res.Stats.DerivedLoops == 0 {
		t.Error("expected the loop φ to be derived")
	}
}
