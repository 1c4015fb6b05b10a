package bench

import (
	"math"
	"testing"
)

// synthEvals is two programs with identical vrp behaviour. Only the
// first had a training run; the second, like a generated program, has no
// profiling prediction at all.
func synthEvals() []*ProgramEval {
	return []*ProgramEval{{
		Name: "p",
		Records: []BranchRecord{
			// VRP predicts taken (0.9), actually taken 80% of 100 execs;
			// profile is oracle-exact.
			{Actual: 0.8, Weight: 100, Pred: map[string]float64{PredVRP: 0.9, PredProfile: 0.8}},
			// VRP predicts not-taken (0.2), actually taken 10% of 300
			// execs: hit fraction 0.9.
			{Actual: 0.1, Weight: 300, Pred: map[string]float64{PredVRP: 0.2, PredProfile: 0.1}},
		},
	}, {
		Name: "gen",
		Records: []BranchRecord{
			{Actual: 0.8, Weight: 100, Pred: map[string]float64{PredVRP: 0.9}},
			{Actual: 0.1, Weight: 300, Pred: map[string]float64{PredVRP: 0.2}},
		},
	}}
}

// TestScoringSkipsMissingPredictor: a record without a profiling
// prediction must not score profiling as p=0. Read as 0, the "gen"
// program would add a 45pp error and a 12.5% hit rate.
func TestScoringSkipsMissingPredictor(t *testing.T) {
	evals := synthEvals()
	for _, weighted := range []bool{false, true} {
		if me := MeanError(evals, weighted)[PredProfile]; me != 0 {
			t.Errorf("weighted=%v: profiling mean error = %f, want 0", weighted, me)
		}
		for _, c := range ErrorCurves(evals, weighted) {
			if c.Predictor == PredProfile && c.Pct[0] != 100 {
				t.Errorf("weighted=%v: profiling <1pp = %f%%, want 100", weighted, c.Pct[0])
			}
		}
	}
	if hr := HitRates(evals)[PredProfile]; math.Abs(hr-87.5) > 1e-9 {
		t.Errorf("profiling hit rate = %f, want 87.5", hr)
	}
	if ag := agreement(evals)[PredProfile]; ag != 100 {
		t.Errorf("profiling agreement = %f, want 100", ag)
	}

	// A predictor no record carries gets no score and no curve.
	gen := evals[1:]
	if _, ok := MeanError(gen, false)[PredProfile]; ok {
		t.Error("MeanError scored profiling on records without it")
	}
	if _, ok := HitRates(gen)[PredProfile]; ok {
		t.Error("HitRates scored profiling on records without it")
	}
	if _, ok := agreement(gen)[PredProfile]; ok {
		t.Error("Agreement scored profiling on records without it")
	}
	for _, c := range ErrorCurves(gen, false) {
		if c.Predictor == PredProfile {
			t.Error("ErrorCurves drew a profiling curve from records without it")
		}
	}
}

// TestAgreementMath: agreement pools every record of every program and
// counts each branch once, whatever its weight.
func TestAgreementMath(t *testing.T) {
	evals := []*ProgramEval{
		{Records: []BranchRecord{
			{Actual: 0.8, Weight: 1000, Pred: map[string]float64{PredVRP: 0.9}}, // agrees
			{Actual: 0.5, Weight: 1, Pred: map[string]float64{PredVRP: 0.5}},    // agrees: both ≥ 0.5
		}},
		{Records: []BranchRecord{
			{Actual: 0.1, Weight: 1, Pred: map[string]float64{PredVRP: 0.6}}, // disagrees
			{Actual: 0.9, Weight: 1, Pred: map[string]float64{PredVRP: 0.4}}, // disagrees
		}},
	}
	if got := agreement(evals)[PredVRP]; got != 50 {
		t.Errorf("agreement = %f, want 50", got)
	}
}

func TestHitRatesMath(t *testing.T) {
	evals := []*ProgramEval{{
		Name: "p",
		Records: []BranchRecord{
			// Predicted taken (0.9), actually taken 80% of 100 execs.
			{Actual: 0.8, Weight: 100, Pred: map[string]float64{PredVRP: 0.9}},
			// Predicted not-taken (0.2), actually taken 10% of 300 execs:
			// hit fraction 0.9.
			{Actual: 0.1, Weight: 300, Pred: map[string]float64{PredVRP: 0.2}},
		},
	}}
	hr := HitRates(evals)
	want := 100 * (100*0.8 + 300*0.9) / 400
	if math.Abs(hr[PredVRP]-want) > 1e-9 {
		t.Errorf("hit rate = %f, want %f", hr[PredVRP], want)
	}
}

func TestHitRatesPerfectPredictor(t *testing.T) {
	evals := []*ProgramEval{{
		Name: "p",
		Records: []BranchRecord{
			{Actual: 1, Weight: 50, Pred: map[string]float64{PredProfile: 1}},
			{Actual: 0, Weight: 50, Pred: map[string]float64{PredProfile: 0}},
		},
	}}
	hr := HitRates(evals)
	if hr[PredProfile] != 100 {
		t.Errorf("perfect predictor hit rate = %f", hr[PredProfile])
	}
}

func TestErrorCurvesMath(t *testing.T) {
	// Two programs, two branches each, hand-computed distributions.
	evals := []*ProgramEval{
		{
			Name: "p1",
			Records: []BranchRecord{
				{Actual: 0.5, Weight: 10, Pred: map[string]float64{PredVRP: 0.5}}, // err 0
				{Actual: 0.5, Weight: 90, Pred: map[string]float64{PredVRP: 0.4}}, // err 10
			},
		},
		{
			Name: "p2",
			Records: []BranchRecord{
				{Actual: 1.0, Weight: 50, Pred: map[string]float64{PredVRP: 0.7}}, // err 30
				{Actual: 0.0, Weight: 50, Pred: map[string]float64{PredVRP: 0.0}}, // err 0
			},
		},
	}
	curves := ErrorCurves(evals, false)
	var vrpCurve *Curve
	for i := range curves {
		if curves[i].Predictor == PredVRP {
			vrpCurve = &curves[i]
		}
	}
	if vrpCurve == nil {
		t.Fatal("no vrp curve")
	}
	// Threshold <5: p1 has 1/2 within, p2 has 1/2 within → mean 50%.
	if got := vrpCurve.Pct[2]; math.Abs(got-50) > 1e-9 { // Thresholds[2] == 5
		t.Errorf("<5pp = %f, want 50", got)
	}
	// Threshold <11: p1 2/2, p2 1/2 → 75%.
	if got := vrpCurve.Pct[5]; math.Abs(got-75) > 1e-9 { // Thresholds[5] == 11
		t.Errorf("<11pp = %f, want 75", got)
	}
	// Threshold <31: everything → 100%.
	if got := vrpCurve.Pct[15]; math.Abs(got-100) > 1e-9 {
		t.Errorf("<31pp = %f, want 100", got)
	}

	// Weighted: p1 within<5 = 10/100; p2 = 50/100 → mean 30%.
	wcurves := ErrorCurves(evals, true)
	for i := range wcurves {
		if wcurves[i].Predictor == PredVRP {
			if got := wcurves[i].Pct[2]; math.Abs(got-30) > 1e-9 {
				t.Errorf("weighted <5pp = %f, want 30", got)
			}
		}
	}
}

func TestMeanErrorMath(t *testing.T) {
	evals := []*ProgramEval{
		{
			Name: "p1",
			Records: []BranchRecord{
				{Actual: 0.5, Weight: 1, Pred: map[string]float64{Pred9050: 0.9}}, // 40pp
				{Actual: 0.5, Weight: 3, Pred: map[string]float64{Pred9050: 0.5}}, // 0pp
			},
		},
	}
	me := MeanError(evals, false)
	if math.Abs(me[Pred9050]-20) > 1e-9 {
		t.Errorf("unweighted mean = %f, want 20", me[Pred9050])
	}
	mw := MeanError(evals, true)
	if math.Abs(mw[Pred9050]-10) > 1e-9 {
		t.Errorf("weighted mean = %f, want 10", mw[Pred9050])
	}
}
