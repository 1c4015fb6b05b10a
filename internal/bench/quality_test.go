package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func gateReport(agreement, certain float64, stale int64) *QualityReport {
	return &QualityReport{
		Schema: QualitySchema,
		Suites: []QualitySuite{{
			Suite:           "corpus-int",
			Programs:        3,
			Branches:        100,
			CertainFraction: certain,
			AgreementPct:    agreement,
			StaleCertain:    stale,
			Predictors: map[string]PredictorScore{
				PredVRP:       {WeightedMeanAbsErrPct: 17.1},
				PredBallLarus: {WeightedMeanAbsErrPct: 21.3},
			},
		}},
	}
}

// withWeightedErr sets a report's vrp and ball-larus weighted errors.
func withWeightedErr(r *QualityReport, vrp, bl float64) *QualityReport {
	r.Suites[0].Predictors = map[string]PredictorScore{
		PredVRP:       {WeightedMeanAbsErrPct: vrp},
		PredBallLarus: {WeightedMeanAbsErrPct: bl},
	}
	return r
}

func TestQualityGate(t *testing.T) {
	base := gateReport(85, 0.30, 0)
	cases := []struct {
		name string
		cur  *QualityReport
		fail string // substring of the expected error; "" = pass
	}{
		{"identical", gateReport(85, 0.30, 0), ""},
		{"within-slack", gateReport(85-qualityAgreementSlackPct, 0.30-qualityCertainSlack, 0), ""},
		{"improved", gateReport(92, 0.45, 0), ""},
		{"agreement-regressed", gateReport(80, 0.30, 0), "agreement"},
		{"certain-regressed", gateReport(85, 0.20, 0), "certain fraction"},
		{"stale-certain", gateReport(85, 0.30, 2), "stale"},
		{"bottom-regressed", func() *QualityReport {
			r := gateReport(85, 0.30, 0)
			r.Suites[0].BottomFraction = 0.5
			return r
		}(), "⊥ cell fraction"},
		// The paper's claim is absolute: it fails even when the baseline
		// recorded the same loss.
		{"vrp-error-not-below-ball-larus", withWeightedErr(gateReport(85, 0.30, 0), 21.3, 21.3), "weighted error"},
		{"vrp-error-above-ball-larus", withWeightedErr(gateReport(85, 0.30, 0), 25, 21.3), "weighted error"},
		{"predictor-scores-missing", withWeightedErr(gateReport(85, 0.30, 0), 0, 0), "weighted error"},
	}
	for _, tc := range cases {
		err := QualityGate(base, tc.cur)
		if tc.fail == "" {
			if err != nil {
				t.Errorf("%s: unexpected gate failure: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: gate passed, want failure mentioning %q", tc.name, tc.fail)
		} else if !strings.Contains(err.Error(), tc.fail) {
			t.Errorf("%s: gate error %q does not mention %q", tc.name, err, tc.fail)
		}
	}
}

// TestQualityGateReportsEveryRegression: a report that fails on several
// axes lists them all, so a CI log shows the full damage in one run.
func TestQualityGateReportsEveryRegression(t *testing.T) {
	err := QualityGate(gateReport(85, 0.30, 0), gateReport(70, 0.10, 1))
	if err == nil {
		t.Fatal("gate passed on a triple regression")
	}
	for _, want := range []string{"agreement", "certain fraction", "stale"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("gate error missing %q: %v", want, err)
		}
	}
}

// TestQualityGateSkipsNewSuites: a suite without a baseline row cannot
// regress; the gate must not fail on it.
func TestQualityGateSkipsNewSuites(t *testing.T) {
	cur := gateReport(85, 0.30, 0)
	cur.Suites = append(cur.Suites, QualitySuite{Suite: "gen-new", AgreementPct: 1})
	if err := QualityGate(gateReport(85, 0.30, 0), cur); err != nil {
		t.Errorf("gate failed on a suite with no baseline: %v", err)
	}
}

func TestQualityRowMath(t *testing.T) {
	qs := qualityRow("int", synthEvals())
	if qs.Suite != "int" || qs.Programs != 2 || qs.ExecutedBranches != 4 {
		t.Fatalf("header = %+v", qs)
	}

	vrp, ok := qs.Predictors[PredVRP]
	if !ok {
		t.Fatal("missing vrp predictor")
	}
	wantHit := 100 * (100*0.8 + 300*0.9) / 400
	if math.Abs(vrp.HitRatePct-wantHit) > 1e-9 {
		t.Errorf("vrp hit rate = %f, want %f", vrp.HitRatePct, wantHit)
	}
	// Branch-equal: (|0.9-0.8| + |0.2-0.1|) / 2 = 0.1 → 10pp.
	if math.Abs(vrp.MeanAbsErrPct-10) > 1e-9 {
		t.Errorf("vrp mean abs err = %f, want 10", vrp.MeanAbsErrPct)
	}
	// Execution-weighted: (100·10 + 300·10) / 400 = 10pp too.
	if math.Abs(vrp.WeightedMeanAbsErrPct-10) > 1e-9 {
		t.Errorf("vrp weighted mean abs err = %f, want 10", vrp.WeightedMeanAbsErrPct)
	}
	if qs.AgreementPct != 100 || qs.PredictorHitPct[PredVRP] != 100 {
		t.Errorf("vrp agreement = %f / %f, want 100", qs.AgreementPct, qs.PredictorHitPct[PredVRP])
	}
	if _, ok := qs.PredictorHitPct[PredProfile]; ok {
		t.Error("predictor_hit_pct grew a profiling entry")
	}

	// The profile predictor is probability-exact, so its error is 0 —
	// but its miss rate is the branches' intrinsic entropy
	// (100·0.2 + 300·0.1)/400 = 12.5%, not 0: even an oracle misses
	// whenever a branch goes both ways.
	prof := qs.Predictors[PredProfile]
	if prof.MeanAbsErrPct > 1e-9 || prof.WeightedMeanAbsErrPct > 1e-9 {
		t.Errorf("oracle profile predictor scored nonzero error: %+v", prof)
	}
	if math.Abs(prof.HitRatePct-87.5) > 1e-9 {
		t.Errorf("profile hit rate = %f, want 87.5 (intrinsic miss 12.5)", prof.HitRatePct)
	}
}

func TestQualityReportJSONShape(t *testing.T) {
	rep := &QualityReport{Schema: QualitySchema, Suites: []QualitySuite{qualityRow("corpus-int", synthEvals())}}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var round QualityReport
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatal(err)
	}
	if len(round.Suites) != 1 || round.Suites[0].Predictors[PredVRP].HitRatePct == 0 {
		t.Errorf("round trip lost data: %s", data)
	}
	for _, key := range []string{`"schema":"vrp-quality/v2"`, `"suite"`, `"programs"`, `"branches"`,
		`"executed_branches"`, `"agreement_pct"`, `"predictor_hit_pct"`, `"predictors"`,
		`"hit_rate_pct"`, `"mean_abs_err_pct"`, `"weighted_mean_abs_err_pct"`} {
		if !bytes.Contains(data, []byte(key)) {
			t.Errorf("JSON missing documented key %s", key)
		}
	}
}

func TestPrintQuality(t *testing.T) {
	rep := &QualityReport{Suites: []QualitySuite{qualityRow("corpus-int", synthEvals())}}
	var buf bytes.Buffer
	PrintQuality(&buf, rep)
	out := buf.String()
	for _, want := range []string{"suite corpus-int", "4 executed", "predictor", "w-abs-err", PredVRP, PredProfile} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestAccuracyCorpus runs the real corpus end to end: the quality report
// must cover both corpus suites, VRP must beat random on both (the
// paper's central claim, coarsened to the hit-rate metric), and the
// profiling oracle must be no worse than VRP.
func TestAccuracyCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus evaluation")
	}
	rep, err := Quality(0)
	if err != nil {
		t.Fatal(err)
	}
	corpusRows := 0
	for _, qs := range rep.Suites {
		if !strings.HasPrefix(qs.Suite, "corpus-") {
			continue
		}
		corpusRows++
		if qs.Programs == 0 || qs.ExecutedBranches == 0 {
			t.Errorf("suite %s is empty: %+v", qs.Suite, qs)
		}
		vrp, random := qs.Predictors[PredVRP], qs.Predictors[PredRandom]
		if vrp.HitRatePct <= random.HitRatePct {
			t.Errorf("suite %s: vrp hit %.1f%% not better than random %.1f%%",
				qs.Suite, vrp.HitRatePct, random.HitRatePct)
		}
		profile := qs.Predictors[PredProfile]
		if profile.HitRatePct < vrp.HitRatePct-1e-9 {
			t.Errorf("suite %s: profile oracle (%.1f%%) worse than vrp (%.1f%%)",
				qs.Suite, profile.HitRatePct, vrp.HitRatePct)
		}
	}
	if corpusRows != 2 {
		t.Fatalf("corpus suites = %d, want 2", corpusRows)
	}
}
