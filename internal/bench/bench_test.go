package bench

import (
	"math"
	"strings"
	"testing"

	"vrp/internal/corpus"
)

func TestFitLinear(t *testing.T) {
	pts := []Point{{Instrs: 100, Y: 200}, {Instrs: 200, Y: 400}, {Instrs: 400, Y: 800}}
	fit := FitLinear(pts)
	if math.Abs(fit.Slope-2) > 1e-9 {
		t.Errorf("slope = %f, want 2", fit.Slope)
	}
	if math.Abs(fit.R2-1) > 1e-9 {
		t.Errorf("R2 = %f, want 1", fit.R2)
	}
	noisy := []Point{{Instrs: 100, Y: 250}, {Instrs: 200, Y: 380}, {Instrs: 400, Y: 790}}
	nf := FitLinear(noisy)
	if nf.R2 > 1 || nf.R2 < 0.9 {
		t.Errorf("noisy R2 = %f", nf.R2)
	}
}

// TestPaperShape asserts the §5 qualitative claims hold on the corpus —
// the reproduction's headline result.
func TestPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus evaluation")
	}
	for _, suite := range []corpus.Suite{corpus.IntSuite, corpus.FPSuite} {
		evals, err := EvalSuite(suite)
		if err != nil {
			t.Fatal(err)
		}
		for _, weighted := range []bool{false, true} {
			me := MeanError(evals, weighted)
			// Profiling beats every static predictor.
			for _, pred := range []string{PredVRP, PredVRPNumeric, PredBallLarus, Pred9050, PredRandom} {
				if me[PredProfile] >= me[pred] {
					t.Errorf("%s/w=%v: profiling (%.1f) should beat %s (%.1f)",
						suite, weighted, me[PredProfile], pred, me[pred])
				}
			}
			// VRP beats Ball–Larus and the 90/50 rule.
			if me[PredVRP] >= me[PredBallLarus] {
				t.Errorf("%s/w=%v: vrp (%.1f) should beat ball-larus (%.1f)",
					suite, weighted, me[PredVRP], me[PredBallLarus])
			}
			if me[PredVRP] >= me[Pred9050] {
				t.Errorf("%s/w=%v: vrp (%.1f) should beat 90-50 (%.1f)",
					suite, weighted, me[PredVRP], me[Pred9050])
			}
			// Symbolic ranges improve on numeric-only.
			if me[PredVRP] > me[PredVRPNumeric] {
				t.Errorf("%s/w=%v: vrp (%.1f) should not lose to numeric-only (%.1f)",
					suite, weighted, me[PredVRP], me[PredVRPNumeric])
			}
		}
	}

	// fp code is more predictable than int code for VRP (paper: "the
	// value range propagation method is significantly more accurate for
	// numeric code").
	intEvals, err := EvalSuite(corpus.IntSuite)
	if err != nil {
		t.Fatal(err)
	}
	fpEvals, err := EvalSuite(corpus.FPSuite)
	if err != nil {
		t.Fatal(err)
	}
	if MeanError(fpEvals, true)[PredVRP] >= MeanError(intEvals, true)[PredVRP] {
		t.Error("fp suite should be more predictable than int suite")
	}
	// And the share of range-predicted branches should be higher on fp.
	intShare, fpShare := 0.0, 0.0
	for _, ev := range intEvals {
		intShare += ev.VRPShare
	}
	for _, ev := range fpEvals {
		fpShare += ev.VRPShare
	}
	if fpShare/float64(len(fpEvals)) <= intShare/float64(len(intEvals)) {
		t.Error("fp suite should have a higher range-predicted share")
	}
}

// TestLinearity asserts the §4 claim: evaluation work grows linearly with
// program size (high R² of the through-origin fit over merged programs of
// growing size).
func TestLinearity(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus evaluation")
	}
	for _, subOps := range []bool{false, true} {
		pts, err := ScaledPoints(subOps)
		if err != nil {
			t.Fatal(err)
		}
		fit := FitLinear(pts)
		if fit.R2 < 0.9 {
			t.Errorf("subOps=%v: R² = %.3f — not plausibly linear", subOps, fit.R2)
		}
		if fit.Slope <= 0 {
			t.Errorf("subOps=%v: slope %.2f", subOps, fit.Slope)
		}
	}
}

func TestPrinters(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus evaluation")
	}
	evals, err := EvalAll(Variant{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	PrintFigure(&sb, evals, corpus.FPSuite)
	out := sb.String()
	for _, frag := range []string{"Figure 8", "unweighted", "weighted", "vrp", "ball-larus", "90-50"} {
		if !strings.Contains(out, frag) {
			t.Errorf("figure output missing %q", frag)
		}
	}
	sb.Reset()
	if err := PrintLinearity(&sb, evals, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "linear fit") {
		t.Error("linearity output missing fit")
	}
	sb.Reset()
	PrintSummary(&sb, evals)
	if !strings.Contains(sb.String(), "mean absolute prediction error") {
		t.Error("summary output malformed")
	}
	sb.Reset()
	if err := PrintApplications(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "bounds checks") {
		t.Error("applications output malformed")
	}
}
