package vrp

import (
	"testing"

	"vrp/internal/corpus"
	"vrp/internal/ir"
)

func ackermannProg(t *testing.T) *ir.Program {
	t.Helper()
	for _, cp := range corpus.All() {
		if cp.Name == "ackermann" {
			return compileSrc(t, cp.Name, cp.Source)
		}
	}
	t.Fatal("ackermann program missing from corpus")
	return nil
}

// TestRecursionWideningConverges: under DefaultConfig (RecWidenAfter =
// MaxPasses-2) the ackermann self-recursion must widen and reach a true
// interprocedural fixpoint within MaxPasses, with no non-convergence
// diagnostic. Opting out with RecWidenAfter=0 restores the old
// behaviour: no widening, and the shifting argument ranges exhaust
// MaxPasses into the ⊤→⊥ demotion path.
func TestRecursionWideningConverges(t *testing.T) {
	prog := ackermannProg(t)

	base := DefaultConfig()
	res, err := Analyze(prog, base)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Errorf("default config: fixpoint did not converge in %d passes", base.MaxPasses)
	}
	if res.Stats.RecWidens == 0 {
		t.Error("default config: no slot was pinned on the recursive SCC")
	}
	for _, d := range res.Diagnostics {
		if d.Kind == DiagNonConvergence {
			t.Errorf("unexpected non-convergence diagnostic: %+v", d)
		}
	}

	off := DefaultConfig()
	off.RecWidenAfter = 0 // opt out
	ores, err := Analyze(prog, off)
	if err != nil {
		t.Fatal(err)
	}
	if ores.Stats.RecWidens != 0 {
		t.Errorf("widening fired with RecWidenAfter=0: RecWidens=%d", ores.Stats.RecWidens)
	}
	if ores.Stats.Converged {
		t.Error("RecWidenAfter=0: ackermann converged without widening; the default no longer protects anything")
	}
}

// TestRecursionWideningEarlier: a more aggressive threshold than the
// default still converges and still fires.
func TestRecursionWideningEarlier(t *testing.T) {
	prog := ackermannProg(t)
	wcfg := DefaultConfig()
	wcfg.RecWidenAfter = 3
	wres, err := Analyze(prog, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !wres.Stats.Converged {
		t.Errorf("RecWidenAfter=3: fixpoint did not converge in %d passes", wcfg.MaxPasses)
	}
	if wres.Stats.RecWidens == 0 {
		t.Error("RecWidenAfter=3: no slot was pinned on a recursive SCC")
	}
}

// TestRecursionWideningDeterministic: widening decisions live on the
// interprocedural tables — the pin/clamp schedule must be identical from
// run to run.
func TestRecursionWideningDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecWidenAfter = 2
	for _, cp := range corpus.All() {
		prog := compileSrc(t, cp.Name, cp.Source)
		first, err := Analyze(prog, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cp.Name, err)
		}
		second, err := Analyze(prog, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cp.Name, err)
		}
		branchesEqual(t, cp.Name, first.Branches(), second.Branches())
		if first.Stats != second.Stats {
			t.Errorf("%s: stats differ between two runs:\nfirst  %+v\nsecond %+v",
				cp.Name, first.Stats, second.Stats)
		}
	}
}
