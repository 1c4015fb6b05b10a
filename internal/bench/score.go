package bench

// Scoring reads only BranchRecords. A predictor a record lacks (profiling
// on a program with no training run) is skipped for that record, never
// read as p=0; a program with no records for a predictor drops out of
// that predictor's program average.

// Thresholds are the x-axis of Figures 7–8: error in percentage points.
var Thresholds = []float64{1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31, 33, 35, 37, 39}

// Curve is the fraction of branches predicted within each threshold.
type Curve struct {
	Predictor string
	Pct       []float64 // per Thresholds entry, in percent (0-100)
}

// ErrorCurves computes the cumulative error distribution per predictor.
// With weighted=true each branch counts proportionally to its execution
// count; each program contributes equally either way. A predictor no
// record carries gets no curve.
func ErrorCurves(evals []*ProgramEval, weighted bool) []Curve {
	curves := make([]Curve, 0, len(Predictors()))
	for _, pred := range Predictors() {
		pct := make([]float64, len(Thresholds))
		nProgs := 0
		for _, ev := range evals {
			totalW := 0.0
			within := make([]float64, len(Thresholds))
			for _, rec := range ev.Records {
				p, ok := rec.Pred[pred]
				if !ok {
					continue
				}
				w := 1.0
				if weighted {
					w = rec.Weight
				}
				totalW += w
				errPts := 100 * abs(p-rec.Actual)
				for ti, th := range Thresholds {
					if errPts < th {
						within[ti] += w
					}
				}
			}
			if totalW == 0 {
				continue
			}
			nProgs++
			for ti := range Thresholds {
				pct[ti] += 100 * within[ti] / totalW
			}
		}
		if nProgs == 0 {
			continue
		}
		for ti := range pct {
			pct[ti] /= float64(nProgs)
		}
		curves = append(curves, Curve{Predictor: pred, Pct: pct})
	}
	return curves
}

// MeanError returns each predictor's average absolute error in percentage
// points (program-equal weighting), a scalar summary of the curves.
func MeanError(evals []*ProgramEval, weighted bool) map[string]float64 {
	out := map[string]float64{}
	for _, pred := range Predictors() {
		sum, nProgs := 0.0, 0
		for _, ev := range evals {
			totalW, acc := 0.0, 0.0
			for _, rec := range ev.Records {
				p, ok := rec.Pred[pred]
				if !ok {
					continue
				}
				w := 1.0
				if weighted {
					w = rec.Weight
				}
				totalW += w
				acc += w * 100 * abs(p-rec.Actual)
			}
			if totalW > 0 {
				sum += acc / totalW
				nProgs++
			}
		}
		if nProgs > 0 {
			out[pred] = sum / float64(nProgs)
		}
	}
	return out
}

// HitRates computes the dynamic taken/not-taken hit rate per predictor,
// in percent (program-equal weighting, execution-count weighting within a
// program). It is the metric of the branch-prediction studies the paper
// positions itself against (Smith 81, Ball–Larus 93, Fisher–Freudenberger
// 92): predict the likelier direction of each branch and count the
// fraction of *dynamic* executions that went that way. The paper argues
// probabilities are strictly more informative; the hit-rate table shows
// the coarse metric agrees with the fine one on ordering.
func HitRates(evals []*ProgramEval) map[string]float64 {
	out := map[string]float64{}
	for _, pred := range Predictors() {
		sum, n := 0.0, 0
		for _, ev := range evals {
			var hits, total float64
			for _, rec := range ev.Records {
				p, ok := rec.Pred[pred]
				if !ok || rec.Weight <= 0 {
					continue
				}
				// Predicting the likelier direction: if p >= 0.5 predict
				// taken; the hit fraction is then `actual`, else 1-actual.
				frac := rec.Actual
				if p < 0.5 {
					frac = 1 - rec.Actual
				}
				hits += rec.Weight * frac
				total += rec.Weight
			}
			if total > 0 {
				sum += hits / total
				n++
			}
		}
		if n > 0 {
			out[pred] = 100 * sum / float64(n)
		}
	}
	return out
}

// agreement returns, per predictor, the percentage of records — pooled
// over every program, each branch counting once — whose predicted
// direction (p >= 0.5) matches the branch's majority direction on the
// ref input.
func agreement(evals []*ProgramEval) map[string]float64 {
	out := map[string]float64{}
	for _, pred := range Predictors() {
		var agreed, n int64
		for _, ev := range evals {
			for _, rec := range ev.Records {
				p, ok := rec.Pred[pred]
				if !ok {
					continue
				}
				n++
				if (p >= 0.5) == (rec.Actual >= 0.5) {
					agreed++
				}
			}
		}
		if n > 0 {
			out[pred] = 100 * float64(agreed) / float64(n)
		}
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
