package bench

import (
	"fmt"
	"io"
	"strings"

	"vrp"
	"vrp/internal/corpus"
	"vrp/internal/genprog"
	"vrp/internal/telemetry"
)

// Prediction quality as a gated artifact (BENCH_quality.json): for every
// suite, how much of the branch surface VRP predicts with certainty, how
// wide the surviving ranges are, how often each predictor calls the
// branch direction right against the step-bounded interpreter, and each
// predictor's probability error (the paper's Figures 7–8 metric).
// `vrpbench -quality -gate` fails CI when direction agreement or the
// certain fraction drops below the committed baseline, when any stale
// range-certain prediction survives a demotion, or when VRP's weighted
// error on the corpus is not below Ball–Larus's.

// QualitySchema identifies the BENCH_quality.json format (EXPERIMENTS.md).
const QualitySchema = "vrp-quality/v2"

// QualitySuite is one suite's quality row.
type QualitySuite struct {
	Suite            string `json:"suite"`
	Programs         int    `json:"programs"`
	Branches         int64  `json:"branches"`          // emitted predictions across the suite
	ExecutedBranches int    `json:"executed_branches"` // branches the ref input executed (the scored ones)

	// CertainFraction is the share of emitted predictions that are
	// range-certain (P ∈ {0, 1}); MeanLog2Width the program-equal mean of
	// each analysis's mean log₂ hull width; StaleCertain the total
	// stale-certain count (0 unless a demotion invalidated predictions).
	CertainFraction float64 `json:"certain_fraction"`
	MeanLog2Width   float64 `json:"mean_log2_width"`
	StaleCertain    int64   `json:"stale_certain"`

	// Cells is the total final-lattice cell count across the suite and
	// BottomFraction the share demoted to ⊥ — the axis that craters
	// first when the evaluator is starved (forced early widening), even
	// while heuristic fallbacks keep direction agreement afloat.
	Cells          int64   `json:"cells"`
	BottomFraction float64 `json:"bottom_fraction"`

	// AgreementPct is VRP's direction agreement with the interpreter
	// over executed branches, in percent; PredictorHitPct the same rate
	// for vrp, ball-larus and 90-50.
	AgreementPct    float64            `json:"agreement_pct"`
	PredictorHitPct map[string]float64 `json:"predictor_hit_pct"`

	// Predictors scores every predictor the suite's records carry.
	Predictors map[string]PredictorScore `json:"predictors"`
}

// PredictorScore is one predictor's error and hit rate over a suite,
// each program weighted equally.
type PredictorScore struct {
	// MeanAbsErrPct is the mean absolute probability error in percentage
	// points, each branch counting once (the paper's unweighted
	// distributions collapsed to a scalar); WeightedMeanAbsErrPct weights
	// each branch by its execution count.
	MeanAbsErrPct         float64 `json:"mean_abs_err_pct"`
	WeightedMeanAbsErrPct float64 `json:"weighted_mean_abs_err_pct"`
	// HitRatePct is the dynamic taken/not-taken hit rate (HitRates).
	HitRatePct float64 `json:"hit_rate_pct"`
}

// QualityReport is the machine-readable content of BENCH_quality.json.
type QualityReport struct {
	Schema string         `json:"schema"`
	Suites []QualitySuite `json:"suites"`
}

// Quality evaluates both corpus suites on their reference inputs, plus
// the default and 10k genprog presets (zero-input, step-bounded — the
// mega-shape traffic vrpd actually serves), and assembles the report.
// maxEvals > 0 overrides the engine's per-instruction evaluation budget —
// the synthetic-regression knob the CI gate uses to prove the gate fires
// (forcing MaxEvals=1 widens aggressively and craters the certain
// fraction).
func Quality(maxEvals int) (*QualityReport, error) {
	var v Variant
	if maxEvals > 0 {
		v.Opts = []vrp.Option{vrp.WithMaxEvals(maxEvals)}
	}
	type suite struct {
		name     string
		subjects []Subject
	}
	var suites []suite
	for _, s := range []corpus.Suite{corpus.IntSuite, corpus.FPSuite} {
		suites = append(suites, suite{"corpus-" + s.String(), corpusSubjects(corpus.BySuite(s))})
	}
	for _, preset := range []string{"default", "10k"} {
		cfg, _ := genprog.Preset(preset)
		name := "gen-" + preset
		suites = append(suites, suite{name, []Subject{{Name: name, Source: genprog.Source(cfg), MaxSteps: 4 << 20}}})
	}
	rep := &QualityReport{Schema: QualitySchema}
	for _, s := range suites {
		evals, err := evalSubjects(s.subjects, v)
		if err != nil {
			return nil, err
		}
		rep.Suites = append(rep.Suites, qualityRow(s.name, evals))
	}
	return rep, nil
}

// agreementPredictors are the predictors PredictorHitPct reports, the
// set schema v1 published.
var agreementPredictors = []string{PredVRP, PredBallLarus, Pred9050}

// qualityRow scores one suite from its evals.
func qualityRow(name string, evals []*ProgramEval) QualitySuite {
	qs := QualitySuite{
		Suite:           name,
		Programs:        len(evals),
		PredictorHitPct: map[string]float64{},
		Predictors:      map[string]PredictorScore{},
	}
	bottomIdx := 0
	for i, l := range telemetry.QualityClassLabels {
		if l == "bottom" {
			bottomIdx = i
		}
	}
	var widthSum float64
	var bottomCells int64
	for _, ev := range evals {
		qs.ExecutedBranches += len(ev.Records)
		q := ev.Quality
		if q == nil {
			continue
		}
		qs.Branches += q.Branches
		qs.CertainFraction += float64(q.Certain) // normalized below
		qs.StaleCertain += q.StaleCertain
		widthSum += q.MeanLog2Width
		qs.Cells += q.Classes.Total()
		bottomCells += q.Classes.Counts[bottomIdx]
	}
	if qs.Branches > 0 {
		qs.CertainFraction /= float64(qs.Branches)
	}
	if len(evals) > 0 {
		qs.MeanLog2Width = widthSum / float64(len(evals))
	}
	if qs.Cells > 0 {
		qs.BottomFraction = float64(bottomCells) / float64(qs.Cells)
	}
	agree := agreement(evals)
	qs.AgreementPct = agree[PredVRP]
	for _, pred := range agreementPredictors {
		if pct, ok := agree[pred]; ok {
			qs.PredictorHitPct[pred] = pct
		}
	}
	unweighted, weighted := MeanError(evals, false), MeanError(evals, true)
	for pred, hr := range HitRates(evals) {
		qs.Predictors[pred] = PredictorScore{
			MeanAbsErrPct:         unweighted[pred],
			WeightedMeanAbsErrPct: weighted[pred],
			HitRatePct:            hr,
		}
	}
	return qs
}

// Gate tolerances: agreement may wobble by interpreter-input luck on
// tiny suites, the certain fraction by range-budget tie-breaks; the
// stale-certain count (predictions a demotion invalidated and the
// driver re-derived) gets no slack — growth means new precision loss
// invalidated predictions that used to hold.
const (
	qualityAgreementSlackPct = 2.0
	qualityCertainSlack      = 0.02
	qualityBottomSlack       = 0.02
)

// QualityGate compares a fresh report against the committed baseline and
// returns an error describing every regression: direction agreement
// below baseline−2pp, certain fraction below baseline−0.02, ⊥ cell
// fraction above baseline+0.02, or more stale-certain re-derivations than
// the baseline recorded. Independent of any baseline, it also fails
// unless VRP's weighted probability error on corpus-int and corpus-fp is
// below Ball–Larus's — the paper's headline claim (§5).
func QualityGate(base, cur *QualityReport) error {
	baseBy := map[string]QualitySuite{}
	for _, s := range base.Suites {
		baseBy[s.Suite] = s
	}
	var fails []string
	for _, s := range cur.Suites {
		if s.Suite == "corpus-int" || s.Suite == "corpus-fp" {
			v, bl := s.Predictors[PredVRP], s.Predictors[PredBallLarus]
			if v.WeightedMeanAbsErrPct >= bl.WeightedMeanAbsErrPct {
				fails = append(fails, fmt.Sprintf("%s: vrp weighted error %.1fpp not below ball-larus %.1fpp",
					s.Suite, v.WeightedMeanAbsErrPct, bl.WeightedMeanAbsErrPct))
			}
		}
		b, ok := baseBy[s.Suite]
		if !ok {
			continue // new suite: no baseline to regress against
		}
		if s.AgreementPct < b.AgreementPct-qualityAgreementSlackPct {
			fails = append(fails, fmt.Sprintf("%s: agreement %.1f%% < baseline %.1f%% - %.1fpp",
				s.Suite, s.AgreementPct, b.AgreementPct, qualityAgreementSlackPct))
		}
		if s.CertainFraction < b.CertainFraction-qualityCertainSlack {
			fails = append(fails, fmt.Sprintf("%s: certain fraction %.3f < baseline %.3f - %.2f",
				s.Suite, s.CertainFraction, b.CertainFraction, qualityCertainSlack))
		}
		if s.StaleCertain > b.StaleCertain {
			fails = append(fails, fmt.Sprintf("%s: %d stale range-certain prediction(s) re-derived, baseline %d",
				s.Suite, s.StaleCertain, b.StaleCertain))
		}
		if s.BottomFraction > b.BottomFraction+qualityBottomSlack {
			fails = append(fails, fmt.Sprintf("%s: ⊥ cell fraction %.3f > baseline %.3f + %.2f",
				s.Suite, s.BottomFraction, b.BottomFraction, qualityBottomSlack))
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("quality gate failed:\n  %s", strings.Join(fails, "\n  "))
	}
	return nil
}

// PrintQuality renders the report as the human-readable companion of the
// JSON artifact.
func PrintQuality(w io.Writer, rep *QualityReport) {
	fmt.Fprintln(w, "Prediction quality per suite (interpreter ground truth):")
	for _, s := range rep.Suites {
		fmt.Fprintf(w, "  suite %-10s (%d programs, %d branches, %d executed)\n",
			s.Suite, s.Programs, s.Branches, s.ExecutedBranches)
		fmt.Fprintf(w, "    certain %.3f  mean-log2-width %.2f  bottom %.3f  agreement %.1f%%  stale-certain %d\n",
			s.CertainFraction, s.MeanLog2Width, s.BottomFraction, s.AgreementPct, s.StaleCertain)
		fmt.Fprintf(w, "    %-12s %8s %8s %10s %12s\n", "predictor", "agree", "hit%", "abs-err", "w-abs-err")
		for _, pred := range Predictors() {
			ps, ok := s.Predictors[pred]
			if !ok {
				continue
			}
			agree := "-"
			if pct, ok := s.PredictorHitPct[pred]; ok {
				agree = fmt.Sprintf("%.1f%%", pct)
			}
			fmt.Fprintf(w, "    %-12s %8s %7.1f%% %9.1fpp %11.1fpp\n",
				pred, agree, ps.HitRatePct, ps.MeanAbsErrPct, ps.WeightedMeanAbsErrPct)
		}
	}
	fmt.Fprintln(w)
}
