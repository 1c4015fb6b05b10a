package vrp_test

import (
	"testing"

	"vrp"
	"vrp/internal/genprog"
	"vrp/internal/interp"
)

// TestDifferentialPredictionsOnPresetShapes is the differential
// correctness harness for the generated mega-scale corpus: on every
// genprog shape preset it executes the program under the reference
// interpreter (step-bounded, so recursion rings and deep loop nests
// cannot run away) and confronts VRP's taken/not-taken predictions
// with the recorded ground truth.
//
// Two contracts are checked per shape:
//
//  1. Soundness of certainty: a range-derived prediction of exactly
//     1.0 or 0.0 claims the branch can only go one way; the observed
//     execution must never traverse the impossible edge. This holds
//     everywhere, demoted functions included: the driver re-derives
//     every range-certain prediction in a demoted function from
//     heuristic evidence, so no stale certainty claim may survive a
//     demotion at all.
//  2. Direction quality: over all branches the interpreter actually
//     exercised, the predicted direction (P ≥ 0.5 ⇒ taken) must agree
//     with the observed majority direction well above coin-flip. The
//     corpus and both pipelines are fully deterministic, so the floor
//     is a regression pin, not a statistical bet.
//
// The scale tiers (10k/100k/1M) reuse the same generator shape at
// larger sizes, so the shape presets plus the 10k tier cover every
// distinct CFG/call-graph structure without mega-program runtimes.
func TestDifferentialPredictionsOnPresetShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("differential interpreter runs are slow; skipped with -short")
	}
	shapes := []string{"default", "wide-scc", "deep-loop", "recursive", "10k"}
	for _, name := range shapes {
		t.Run(name, func(t *testing.T) {
			cfg, ok := genprog.Preset(name)
			if !ok {
				t.Fatalf("unknown preset %q", name)
			}
			p, err := vrp.Compile(name+".mini", genprog.Source(cfg))
			if err != nil {
				t.Fatal(err)
			}
			a, err := p.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			// The step bound keeps the run finite on any shape; hitting
			// it returns the partial profile with an error, which is
			// still valid ground truth for every edge it did record.
			prof, err := p.RunWith(nil, interp.Options{MaxSteps: 4 << 20})
			if err != nil && prof == nil {
				t.Fatal(err)
			}
			if prof.Steps == 0 {
				t.Fatal("interpreter recorded no execution")
			}

			demoted := map[string]bool{}
			for _, d := range a.Diagnostics() {
				if d.Func != "" {
					demoted[d.Func] = true
				}
			}

			var observed, agree, certain, staleCertain int
			for _, pr := range a.Predictions() {
				if pr.Source == "range" && (pr.Prob == 0 || pr.Prob == 1) && demoted[pr.Func] {
					// Demotion re-derivation must have rewritten these
					// to heuristic evidence; one surviving is the stale
					// certainty bug the quality gate also pins at zero.
					staleCertain++
					t.Errorf("%s line %d: range-certain P(true)=%v survived demotion un-rederived",
						pr.Func, pr.Pos.Line, pr.Prob)
				}
				gt, ok := prof.BranchProb(pr.Fn, pr.Branch)
				if !ok {
					continue // branch never executed under this input
				}
				observed++
				if (pr.Prob >= 0.5) == (gt >= 0.5) {
					agree++
				}
				if pr.Source == "range" && (pr.Prob == 0 || pr.Prob == 1) {
					certain++
					if (pr.Prob == 1 && gt < 1) || (pr.Prob == 0 && gt > 0) {
						t.Errorf("%s line %d: range-certain P(true)=%v, but interpreter observed %.3f",
							pr.Func, pr.Pos.Line, pr.Prob, gt)
					}
				}
			}
			if observed == 0 {
				t.Fatal("no branch was both predicted and executed; harness is vacuous")
			}
			if staleCertain != 0 {
				t.Errorf("%d stale range-certain prediction(s) in demoted functions; want 0", staleCertain)
			}
			rate := float64(agree) / float64(observed)
			t.Logf("%s: %d branches observed, %d certain, %d re-derived after demotion (Stats.StaleCertain), direction agreement %.1f%%",
				name, observed, certain, a.Result.Stats.StaleCertain, 100*rate)
			if rate < 0.70 {
				t.Errorf("direction agreement %.1f%% below the 70%% pin (%d/%d)",
					100*rate, agree, observed)
			}
		})
	}
}
