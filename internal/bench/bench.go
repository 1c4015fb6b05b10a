// Package bench regenerates the paper's evaluation (§5, Figures 5–8): it
// scores every predictor's branch probabilities against the observed
// behaviour of the corpus programs on their reference inputs, reproducing
// the error-distribution curves, and collects the engine instrumentation
// behind the linearity figures.
//
// Methodology, following the paper exactly:
//
//   - execution profiles are collected on the *train* inputs and scored
//     against the *ref* inputs ("different inputs were used to collect the
//     execution profiles and the actual observed behavior");
//   - each branch's prediction error is the absolute difference between
//     predicted and observed probability, in percentage points;
//   - distributions are reported unweighted (each executed branch counts
//     once) and weighted by execution count;
//   - each benchmark is weighted equally within its suite.
//
// Every experiment goes through one harness: EvalProgram compiles a
// subject, interprets it once per input, analyzes it, and fills one
// BranchRecord per executed branch from one predictor list. Figures,
// summaries, ablations and BENCH_quality.json are all computed from those
// records.
package bench

import (
	"fmt"
	"sort"

	"vrp"
	"vrp/internal/corpus"
	"vrp/internal/heuristics"
	"vrp/internal/interp"
	"vrp/internal/ir"
	corevrp "vrp/internal/vrp"
)

// Predictor names, in the paper's legend order.
const (
	PredProfile    = "profiling"
	PredVRP        = "vrp"
	PredVRPNumeric = "vrp-numeric"
	PredBallLarus  = "ball-larus"
	Pred9050       = "90-50"
	PredRandom     = "random"
)

// Predictors lists every predictor in presentation order.
func Predictors() []string {
	return []string{PredProfile, PredVRP, PredVRPNumeric, PredBallLarus, Pred9050, PredRandom}
}

// predictor is one branch-probability source under evaluation.
type predictor struct {
	Name string
	Prob func(f *ir.Func, br *ir.Instr) float64
}

// BranchRecord is one conditional branch's scoring row.
type BranchRecord struct {
	Func   string
	Actual float64 // observed true-edge probability on the ref input
	Weight float64 // execution count on the ref input
	Pred   map[string]float64
	Source string // how the main VRP predictor decided (range/heuristic)
}

// ProgramEval is one benchmark's full evaluation.
type ProgramEval struct {
	Name    string
	Suite   corpus.Suite
	Records []BranchRecord

	Instrs   int           // program size (Figures 5–6 x-axis)
	Stats    corevrp.Stats // engine instrumentation (Figures 5–6 y-axes)
	RefSteps int64
	VRPShare float64 // fraction of executed branches predicted from ranges

	Quality *vrp.QualitySnapshot // the vrp analysis's quality digest
}

// Subject is one evaluation unit: a program with its inputs.
type Subject struct {
	Name   string
	Suite  corpus.Suite
	Source string
	Ref    []int64 // scored input: its profile is the ground truth
	// Train is the profiling input. nil means no training run, and so
	// no profiling predictor.
	Train    []int64
	MaxSteps int64 // interpreter step budget per run; 0 = interpreter default
}

// CorpusSubject is a corpus program with its train and ref inputs.
func CorpusSubject(cp *corpus.Program) Subject {
	train := cp.Train
	if train == nil {
		train = []int64{} // input-less programs still get a training run
	}
	return Subject{Name: cp.Name, Suite: cp.Suite, Source: cp.Source, Ref: cp.Ref, Train: train}
}

// Variant is one analysis configuration: the default (zero value), or
// one of the ablations of DESIGN.md §5 (range budget, derivation,
// assertions, symbolic ranges, interprocedural propagation, worklist
// order).
type Variant struct {
	Name         string
	NoAssertions bool // requires recompilation
	Clone        bool // apply procedure cloning before analysis
	Opts         []vrp.Option
}

// EvalProgram compiles one subject under v, interprets it on its inputs
// and scores it under every predictor.
func EvalProgram(s Subject, v Variant) (*ProgramEval, error) {
	r, err := execute(s, v)
	if err != nil {
		return nil, err
	}
	return r.eval(v.Opts)
}

// run is a subject compiled under a variant's compile options and
// interpreted once on each of its inputs. Variants that compile alike
// can share it.
type run struct {
	s          Subject
	p          *vrp.Program
	ref, train *interp.Profile
}

func execute(s Subject, v Variant) (*run, error) {
	p, err := vrp.CompileWith(s.Name+".mini", s.Source, vrp.CompileOptions{NoAssertions: v.NoAssertions})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	if v.Clone {
		p.ApplyProcedureCloning()
	}
	r := &run{s: s, p: p}
	limits := interp.Options{MaxSteps: s.MaxSteps}
	if r.ref, err = p.RunWith(s.Ref, limits); err != nil {
		return nil, fmt.Errorf("%s ref run: %w", s.Name, err)
	}
	if s.Train != nil {
		if r.train, err = p.RunWith(s.Train, limits); err != nil {
			return nil, fmt.Errorf("%s train run: %w", s.Name, err)
		}
	}
	return r, nil
}

// eval analyzes the run's program under opts and fills one record per
// branch executed on the ref input.
func (r *run) eval(opts []vrp.Option) (*ProgramEval, error) {
	p, name := r.p, r.s.Name
	full, err := p.Analyze(append([]vrp.Option{vrp.WithTelemetry()}, opts...)...)
	if err != nil {
		return nil, fmt.Errorf("%s vrp: %w", name, err)
	}
	numeric, err := p.Analyze(append(append([]vrp.Option(nil), opts...), vrp.NumericOnly())...)
	if err != nil {
		return nil, fmt.Errorf("%s vrp-numeric: %w", name, err)
	}
	vrpPred := predictionMap(full)
	preds := r.predictors(vrpPred, predictionMap(numeric))

	ev := &ProgramEval{
		Name:     name,
		Suite:    r.s.Suite,
		Instrs:   p.IR.NumInstrs(),
		Stats:    full.Result.Stats,
		RefSteps: r.ref.Steps,
		Quality:  full.Quality(),
	}
	rangePredicted := 0
	for _, f := range p.IR.Funcs {
		for _, b := range f.Blocks {
			t := b.Terminator()
			if t == nil || t.Op != ir.OpBr {
				continue
			}
			actual, ran := r.ref.BranchProb(f, t)
			if !ran {
				continue // never executed on the reference input
			}
			ec := r.ref.EdgeCount[f]
			rec := BranchRecord{
				Func:   f.Name,
				Actual: actual,
				Weight: float64(ec[b.Succs[0].ID] + ec[b.Succs[1].ID]),
				Pred:   make(map[string]float64, len(preds)),
				Source: vrpPred[t].source,
			}
			for _, pr := range preds {
				rec.Pred[pr.Name] = pr.Prob(f, t)
			}
			if rec.Source == "range" {
				rangePredicted++
			}
			ev.Records = append(ev.Records, rec)
		}
	}
	if len(ev.Records) > 0 {
		ev.VRPShare = float64(rangePredicted) / float64(len(ev.Records))
	}
	return ev, nil
}

// predictors is the run's predictor list in presentation order:
// profiling (only with a training run), vrp, vrp-numeric, ball-larus,
// 90-50 and random.
func (r *run) predictors(full, numeric map[*ir.Instr]predInfo) []predictor {
	var ps []predictor
	if train := r.train; train != nil {
		ps = append(ps, predictor{PredProfile, func(f *ir.Func, br *ir.Instr) float64 {
			if tp, ok := train.BranchProb(f, br); ok {
				return tp
			}
			return 0.5 // never seen during training
		}})
	}
	return append(ps,
		predictor{PredVRP, func(_ *ir.Func, br *ir.Instr) float64 { return full[br].prob }},
		predictor{PredVRPNumeric, func(_ *ir.Func, br *ir.Instr) float64 { return numeric[br].prob }},
		predictor{PredBallLarus, heuristics.NewBallLarus(r.p.IR).Prob},
		predictor{Pred9050, heuristics.NinetyFifty},
		predictor{PredRandom, heuristics.Random},
	)
}

type predInfo struct {
	prob   float64
	source string
}

func predictionMap(a *vrp.Analysis) map[*ir.Instr]predInfo {
	m := map[*ir.Instr]predInfo{}
	for _, pr := range a.Predictions() {
		m[pr.Branch] = predInfo{prob: pr.Prob, source: pr.Source}
	}
	return m
}

// evalSubjects evaluates each subject under v.
func evalSubjects(subjects []Subject, v Variant) ([]*ProgramEval, error) {
	out := make([]*ProgramEval, 0, len(subjects))
	for _, s := range subjects {
		ev, err := EvalProgram(s, v)
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, nil
}

func corpusSubjects(cps []*corpus.Program) []Subject {
	out := make([]Subject, len(cps))
	for i, cp := range cps {
		out[i] = CorpusSubject(cp)
	}
	return out
}

// EvalSuite evaluates every program of a suite under the default analysis.
func EvalSuite(s corpus.Suite) ([]*ProgramEval, error) {
	return evalSubjects(corpusSubjects(corpus.BySuite(s)), Variant{})
}

// EvalAll evaluates the whole corpus under v.
func EvalAll(v Variant) ([]*ProgramEval, error) {
	return evalSubjects(corpusSubjects(corpus.All()), v)
}

// ofSuite returns the evals that belong to corpus suite s.
func ofSuite(evals []*ProgramEval, s corpus.Suite) []*ProgramEval {
	var out []*ProgramEval
	for _, ev := range evals {
		if ev.Suite == s {
			out = append(out, ev)
		}
	}
	return out
}

// ------------------------------------------------------- linearity fits

// Point is one program's size/cost pair for Figures 5 and 6.
type Point struct {
	Name   string
	Instrs int
	Y      float64
}

// EvalPoints extracts Figure 5 (evaluations) or Figure 6 (sub-operations)
// points from a corpus evaluation.
func EvalPoints(evals []*ProgramEval, subOps bool) []Point {
	pts := make([]Point, 0, len(evals))
	for _, ev := range evals {
		y := float64(ev.Stats.ExprEvals + ev.Stats.PhiEvals)
		if subOps {
			y = float64(ev.Stats.SubOps)
		}
		pts = append(pts, Point{Name: ev.Name, Instrs: ev.Instrs, Y: y})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Instrs < pts[j].Instrs })
	return pts
}

// Fit is a least-squares line through the origin with its correlation.
type Fit struct {
	Slope float64 // cost per instruction
	R2    float64 // coefficient of determination
}

// FitLinear fits y = slope·x through the origin and reports R².
func FitLinear(pts []Point) Fit {
	var sxy, sxx float64
	for _, p := range pts {
		x := float64(p.Instrs)
		sxy += x * p.Y
		sxx += x * x
	}
	if sxx == 0 {
		return Fit{}
	}
	slope := sxy / sxx
	var meanY float64
	for _, p := range pts {
		meanY += p.Y
	}
	meanY /= float64(len(pts))
	var ssRes, ssTot float64
	for _, p := range pts {
		d := p.Y - slope*float64(p.Instrs)
		ssRes += d * d
		t := p.Y - meanY
		ssTot += t * t
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Fit{Slope: slope, R2: r2}
}
