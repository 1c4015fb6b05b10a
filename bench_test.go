// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark re-runs the corresponding experiment and
// reports its headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. The experiment index lives in
// DESIGN.md §4; the measured-vs-paper comparison in EXPERIMENTS.md.
package vrp_test

import (
	"math"
	"testing"

	"vrp"
	"vrp/internal/apps"
	"vrp/internal/bench"
	"vrp/internal/corpus"
	"vrp/internal/sccp"
)

// BenchmarkFig4PaperExample re-analyzes the paper's worked example
// (Figures 2-4) and reports the predicted probability of "Block A"'s
// branch (paper: 30%).
func BenchmarkFig4PaperExample(b *testing.B) {
	const src = `
func main() {
	var y = 0;
	for (var x = 0; x < 10; x++) {
		if (x > 7) { y = 1; } else { y = x; }
		if (y == 1) { print(y); }
	}
}
`
	var blockA float64
	for i := 0; i < b.N; i++ {
		p, err := vrp.Compile("fig4.mini", src)
		if err != nil {
			b.Fatal(err)
		}
		a, err := p.Analyze()
		if err != nil {
			b.Fatal(err)
		}
		preds := a.Predictions()
		blockA = preds[len(preds)-1].Prob
	}
	b.ReportMetric(100*blockA, "blockA-%taken")
	if math.Abs(blockA-0.30) > 0.005 {
		b.Fatalf("Block A predicted %.3f, paper says 0.30", blockA)
	}
}

// BenchmarkFig5Evaluations reproduces Figure 5: expression evaluations
// versus program size over the corpus, reporting the linear-fit slope and
// R² (paper claim: linear in practice).
func BenchmarkFig5Evaluations(b *testing.B) {
	var fit bench.Fit
	for i := 0; i < b.N; i++ {
		pts, err := bench.ScaledPoints(false)
		if err != nil {
			b.Fatal(err)
		}
		fit = bench.FitLinear(pts)
	}
	b.ReportMetric(fit.Slope, "evals/instr")
	b.ReportMetric(fit.R2, "R2")
}

// BenchmarkFig6SubOperations reproduces Figure 6: evaluation
// sub-operations versus program size.
func BenchmarkFig6SubOperations(b *testing.B) {
	var fit bench.Fit
	for i := 0; i < b.N; i++ {
		pts, err := bench.ScaledPoints(true)
		if err != nil {
			b.Fatal(err)
		}
		fit = bench.FitLinear(pts)
	}
	b.ReportMetric(fit.Slope, "subops/instr")
	b.ReportMetric(fit.R2, "R2")
}

// errWithin returns a curve's value at the given threshold for a
// predictor.
func errWithin(curves []bench.Curve, pred string, th float64) float64 {
	for _, c := range curves {
		if c.Predictor != pred {
			continue
		}
		for i, t := range bench.Thresholds {
			if t == th {
				return c.Pct[i]
			}
		}
	}
	return 0
}

// BenchmarkFig7IntSuite reproduces Figure 7 (SPECint92 stand-in): the
// error-distribution curves, reporting %branches within ±5pp for the key
// predictors.
func BenchmarkFig7IntSuite(b *testing.B) {
	var curves []bench.Curve
	for i := 0; i < b.N; i++ {
		evals, err := bench.EvalSuite(corpus.IntSuite)
		if err != nil {
			b.Fatal(err)
		}
		curves = bench.ErrorCurves(evals, false)
	}
	b.ReportMetric(errWithin(curves, bench.PredProfile, 5), "prof<5pp-%")
	b.ReportMetric(errWithin(curves, bench.PredVRP, 5), "vrp<5pp-%")
	b.ReportMetric(errWithin(curves, bench.PredBallLarus, 5), "bl<5pp-%")
	b.ReportMetric(errWithin(curves, bench.Pred9050, 5), "9050<5pp-%")
}

// BenchmarkFig8FPSuite reproduces Figure 8 (SPECfp92 stand-in).
func BenchmarkFig8FPSuite(b *testing.B) {
	var curves []bench.Curve
	for i := 0; i < b.N; i++ {
		evals, err := bench.EvalSuite(corpus.FPSuite)
		if err != nil {
			b.Fatal(err)
		}
		curves = bench.ErrorCurves(evals, false)
	}
	b.ReportMetric(errWithin(curves, bench.PredProfile, 5), "prof<5pp-%")
	b.ReportMetric(errWithin(curves, bench.PredVRP, 5), "vrp<5pp-%")
	b.ReportMetric(errWithin(curves, bench.PredVRPNumeric, 5), "vrpnum<5pp-%")
	b.ReportMetric(errWithin(curves, bench.PredBallLarus, 5), "bl<5pp-%")
}

// BenchmarkSummaryTable reproduces the §5 headline ordering: mean absolute
// error per predictor (fp suite, weighted).
func BenchmarkSummaryTable(b *testing.B) {
	var me map[string]float64
	for i := 0; i < b.N; i++ {
		evals, err := bench.EvalSuite(corpus.FPSuite)
		if err != nil {
			b.Fatal(err)
		}
		me = bench.MeanError(evals, true)
	}
	b.ReportMetric(me[bench.PredProfile], "prof-err-pp")
	b.ReportMetric(me[bench.PredVRP], "vrp-err-pp")
	b.ReportMetric(me[bench.PredBallLarus], "bl-err-pp")
}

// BenchmarkApplications reproduces the §6 application results.
func BenchmarkApplications(b *testing.B) {
	var consts, dead, bounds int
	for i := 0; i < b.N; i++ {
		consts, dead, bounds = 0, 0, 0
		for _, cp := range corpus.All() {
			p, err := vrp.Compile(cp.Name+".mini", cp.Source)
			if err != nil {
				b.Fatal(err)
			}
			a, err := p.Analyze()
			if err != nil {
				b.Fatal(err)
			}
			cc := apps.FindConstantsAndCopies(a.Result)
			for _, m := range cc.Constants {
				consts += len(m)
			}
			for _, ids := range apps.UnreachableBlocks(a.Result) {
				dead += len(ids)
			}
			bounds += apps.EliminateBoundsChecks(a.Result).Removable
		}
	}
	b.ReportMetric(float64(consts), "constants")
	b.ReportMetric(float64(dead), "dead-blocks")
	b.ReportMetric(float64(bounds), "bounds-removed")
}

// BenchmarkSubsumptionVsSCCP checks the §6 subsumption claim as a
// benchmark: VRP must prove at least every constant SCCP proves, at
// comparable evaluation counts (§4 linearity comparison).
func BenchmarkSubsumptionVsSCCP(b *testing.B) {
	var vrpConsts, sccpConsts int
	var sccpEvals int64
	for i := 0; i < b.N; i++ {
		vrpConsts, sccpConsts, sccpEvals = 0, 0, 0
		for _, cp := range corpus.All() {
			p, err := vrp.Compile(cp.Name+".mini", cp.Source)
			if err != nil {
				b.Fatal(err)
			}
			a, err := p.Analyze()
			if err != nil {
				b.Fatal(err)
			}
			cc := apps.FindConstantsAndCopies(a.Result)
			for _, m := range cc.Constants {
				vrpConsts += len(m)
			}
			for _, f := range p.IR.Funcs {
				r := sccp.Analyze(f)
				sccpEvals += r.Evals
				for reg := range r.ConstRegs() {
					if d := f.Defs[reg]; d != nil && d.Op.String() != "const" {
						sccpConsts++
					}
				}
			}
		}
	}
	if vrpConsts < sccpConsts {
		b.Fatalf("subsumption violated: VRP %d constants < SCCP %d", vrpConsts, sccpConsts)
	}
	b.ReportMetric(float64(vrpConsts), "vrp-constants")
	b.ReportMetric(float64(sccpConsts), "sccp-constants")
	b.ReportMetric(float64(sccpEvals), "sccp-evals")
}

// ------------------------- ablation benches (DESIGN.md §5) -------------

func benchVariant(b *testing.B, noAssert bool, opts ...vrp.Option) {
	b.Helper()
	var meanErr float64
	for i := 0; i < b.N; i++ {
		evals, err := bench.EvalAll(bench.Variant{NoAssertions: noAssert, Opts: opts})
		if err != nil {
			b.Fatal(err)
		}
		meanErr = bench.MeanError(evals, false)[bench.PredVRP]
	}
	b.ReportMetric(meanErr, "mean-err-pp")
}

func BenchmarkAblationFull(b *testing.B)        { benchVariant(b, false) }
func BenchmarkAblationNumericOnly(b *testing.B) { benchVariant(b, false, vrp.NumericOnly()) }
func BenchmarkAblationDerivation(b *testing.B)  { benchVariant(b, false, vrp.WithoutDerivation()) }
func BenchmarkAblationInterprocedural(b *testing.B) {
	benchVariant(b, false, vrp.WithoutInterprocedural())
}
func BenchmarkAblationAssertions(b *testing.B) { benchVariant(b, true) }
func BenchmarkAblationMaxRanges1(b *testing.B) { benchVariant(b, false, vrp.WithMaxRanges(1)) }
func BenchmarkAblationMaxRanges2(b *testing.B) { benchVariant(b, false, vrp.WithMaxRanges(2)) }
func BenchmarkAblationMaxRanges8(b *testing.B) { benchVariant(b, false, vrp.WithMaxRanges(8)) }

// BenchmarkAblationWorklistOrder compares FlowWorkList-first extraction
// (the paper's recommendation, §3.3 step 2) against SSA-first.
func BenchmarkAblationWorklistOrder(b *testing.B) {
	for _, flowFirst := range []bool{true, false} {
		name := "flow-first"
		if !flowFirst {
			name = "ssa-first"
		}
		b.Run(name, func(b *testing.B) {
			var evals int64
			for i := 0; i < b.N; i++ {
				evals = 0
				for _, cp := range corpus.All() {
					p, err := vrp.Compile(cp.Name+".mini", cp.Source)
					if err != nil {
						b.Fatal(err)
					}
					ff := flowFirst
					a, err := p.Analyze(func(c *vrp.EngineConfig) { c.FlowFirst = ff })
					if err != nil {
						b.Fatal(err)
					}
					evals += a.Result.Stats.ExprEvals + a.Result.Stats.PhiEvals
				}
			}
			b.ReportMetric(float64(evals), "evals")
		})
	}
}

// BenchmarkAnalyzeCorpus is the raw engine throughput benchmark: analyze
// the whole corpus once per iteration.
func BenchmarkAnalyzeCorpus(b *testing.B) {
	var progs []*vrp.Program
	var instrs int
	for _, cp := range corpus.All() {
		p, err := vrp.Compile(cp.Name+".mini", cp.Source)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, p)
		instrs += p.IR.NumInstrs()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, err := p.Analyze(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(instrs), "instrs")
}

// BenchmarkInterpretCorpus measures the reference interpreter on the ref
// inputs (the experiment's ground-truth generator).
func BenchmarkInterpretCorpus(b *testing.B) {
	type job struct {
		p  *vrp.Program
		in []int64
	}
	var jobs []job
	for _, cp := range corpus.All() {
		p, err := vrp.Compile(cp.Name+".mini", cp.Source)
		if err != nil {
			b.Fatal(err)
		}
		jobs = append(jobs, job{p, cp.Ref})
	}
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		steps = 0
		for _, j := range jobs {
			prof, err := j.p.Run(j.in)
			if err != nil {
				b.Fatal(err)
			}
			steps += prof.Steps
		}
	}
	b.ReportMetric(float64(steps), "interp-steps")
}

// BenchmarkOptimizer measures VRP-as-an-optimizer (§6): instructions
// removed and dynamic steps saved across the corpus, with behaviour
// preserved (the differential test asserts equality; this reports gains).
func BenchmarkOptimizer(b *testing.B) {
	var removed, folded int
	var stepsSaved int64
	for i := 0; i < b.N; i++ {
		removed, folded, stepsSaved = 0, 0, 0
		for _, cp := range corpus.All() {
			orig, err := vrp.Compile(cp.Name+".mini", cp.Source)
			if err != nil {
				b.Fatal(err)
			}
			opt, err := vrp.Compile(cp.Name+".mini", cp.Source)
			if err != nil {
				b.Fatal(err)
			}
			a, err := opt.Analyze()
			if err != nil {
				b.Fatal(err)
			}
			rep := apps.Optimize(a.Result)
			removed += rep.InstructionsRemoved
			folded += rep.BranchesFolded
			p1, err := orig.Run(cp.Ref)
			if err != nil {
				b.Fatal(err)
			}
			p2, err := opt.Run(cp.Ref)
			if err != nil {
				b.Fatal(err)
			}
			stepsSaved += p1.Steps - p2.Steps
		}
	}
	b.ReportMetric(float64(removed), "instrs-removed")
	b.ReportMetric(float64(folded), "branches-folded")
	b.ReportMetric(float64(stepsSaved), "dyn-steps-saved")
}
