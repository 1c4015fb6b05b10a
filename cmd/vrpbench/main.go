// Command vrpbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	vrpbench            reproduce everything
//	vrpbench -fig 4     the worked example (Figure 2/3/4)
//	vrpbench -fig 5     expression evaluations vs program size
//	vrpbench -fig 6     evaluation sub-operations vs program size
//	vrpbench -fig 7     int suite error distributions (unweighted + weighted)
//	vrpbench -fig 8     fp suite error distributions
//	vrpbench -summary   §5 headline numbers
//	vrpbench -apps      §6 applications
//	vrpbench -ablations DESIGN.md §5 ablation table
//	vrpbench -perf      perf ledger: ns/instr, phase split and allocs/instr on merged corpus and generated tiers (BENCH_perf.json)
//	vrpbench -quality   per-suite prediction quality and per-predictor errors vs the interpreter (BENCH_quality.json)
//
// -gate, with -perf or -quality, checks the fresh report against the
// committed one and exits nonzero on a regression.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"vrp"
	"vrp/internal/bench"
	"vrp/internal/corpus"
	"vrp/internal/genprog"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one vrpbench invocation and returns its exit code: 0 on
// success, 1 when the run or a gate fails, 2 on a usage error.
func run(args []string, w, errw io.Writer) int {
	fs := flag.NewFlagSet("vrpbench", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		fig         = fs.Int("fig", 0, "reproduce one figure (4-8); 0 = all")
		summary     = fs.Bool("summary", false, "print the §5 summary only")
		apps        = fs.Bool("apps", false, "print the §6 applications only")
		ablations   = fs.Bool("ablations", false, "print the ablation table only")
		perfRun     = fs.Bool("perf", false, "measure the perf ledger (merged corpus + generated tiers), emit JSON")
		perfOut     = fs.String("perfout", "BENCH_perf.json", "output path for -perf")
		gate        = fs.Bool("gate", false, "with -perf, exit nonzero if a point's allocs/instr exceeds the committed ledger by more than 2% or gen-100k's ns/instr exceeds 2x gen-10k's; with -quality, exit nonzero if a suite regresses below the committed baseline or vrp's weighted error on the corpus is not below ball-larus's")
		qualityRun  = fs.Bool("quality", false, "evaluate prediction quality (corpus + genprog presets vs the interpreter), emit JSON")
		qualityOut  = fs.String("qualityout", "BENCH_quality.json", "output path for -quality")
		qualityBase = fs.String("qualitybase", "", "with -quality -gate, baseline report to gate against (default: the -qualityout path before it is overwritten)")
		maxEvals    = fs.Int("maxevals", 0, "with -quality, override the engine's per-instruction evaluation budget (synthetic precision-regression knob for gate tests; 0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *gate && !*perfRun && !*qualityRun {
		// A gate that checks nothing must not pass a CI step.
		fmt.Fprintln(errw, "vrpbench: -gate needs -perf or -quality")
		fs.Usage()
		return 2
	}

	var err error
	switch {
	case *perfRun:
		err = runPerf(w, *perfOut, *gate, func() (*bench.PerfReport, error) {
			return bench.Perf(genprog.ScaleTiers())
		})
	case *qualityRun:
		err = runQuality(w, *qualityOut, *qualityBase, *gate, func() (*bench.QualityReport, error) {
			return bench.Quality(*maxEvals)
		})
	case *summary:
		var evals []*bench.ProgramEval
		if evals, err = bench.EvalAll(bench.Variant{}); err == nil {
			bench.PrintSummary(w, evals)
			bench.PrintHitRates(w, evals)
		}
	case *apps:
		err = bench.PrintApplications(w)
	case *ablations:
		err = bench.PrintAblations(w)
	case *fig != 0:
		switch *fig {
		case 4:
			err = printFig4(w)
		case 5, 6:
			var evals []*bench.ProgramEval
			if evals, err = bench.EvalAll(bench.Variant{}); err == nil {
				err = bench.PrintLinearity(w, evals, *fig == 6)
			}
		case 7, 8:
			s := corpus.IntSuite
			if *fig == 8 {
				s = corpus.FPSuite
			}
			var evals []*bench.ProgramEval
			if evals, err = bench.EvalSuite(s); err == nil {
				bench.PrintFigure(w, evals, s)
			}
		default:
			fmt.Fprintf(errw, "vrpbench: unknown figure %d\n", *fig)
			return 2
		}
	default:
		err = printAll(w)
	}
	if err != nil {
		fmt.Fprintln(errw, "vrpbench:", err)
		return 1
	}
	return 0
}

// readReport loads a committed report to gate against.
func readReport(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("gate needs a committed baseline: %w", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	return nil
}

// writeReport writes a report as indented JSON.
func writeReport(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runQuality measures prediction quality against the interpreter and
// writes the report to outPath. With gate set, the fresh report is gated
// against the committed baseline (basePath if given, otherwise outPath),
// and a failing run leaves outPath alone, as runPerf does: writing it
// would make the regressed numbers the next run's baseline.
func runQuality(w io.Writer, outPath, basePath string, gate bool, measure func() (*bench.QualityReport, error)) error {
	var base bench.QualityReport
	if gate {
		if basePath == "" {
			basePath = outPath
		}
		if err := readReport(basePath, &base); err != nil {
			return err
		}
	}
	rep, err := measure()
	if err != nil {
		return err
	}
	bench.PrintQuality(w, rep)
	if gate {
		if err := bench.QualityGate(&base, rep); err != nil {
			return fmt.Errorf("%w\n%s left unchanged", err, outPath)
		}
	}
	if err := writeReport(outPath, rep); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", outPath)
	if gate {
		fmt.Fprintln(w, "quality gate: ok")
	}
	return nil
}

// runPerf measures the perf ledger and writes it to outPath. With gate
// set, the fresh ledger is gated against the one committed at outPath,
// and a failing run leaves that file alone: writing it would make the
// regressed numbers the next run's baseline. The table on w keeps the
// evidence either way.
func runPerf(w io.Writer, outPath string, gate bool, measure func() (*bench.PerfReport, error)) error {
	var base bench.PerfReport
	if gate {
		if err := readReport(outPath, &base); err != nil {
			return err
		}
	}
	rep, err := measure()
	if err != nil {
		return err
	}
	bench.PrintPerf(w, rep)
	if gate {
		if err := bench.PerfGate(&base, rep); err != nil {
			return fmt.Errorf("%w\n%s left unchanged", err, outPath)
		}
	}
	if err := writeReport(outPath, rep); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", outPath)
	if gate {
		fmt.Fprintln(w, "perf gate: ok (allocs/instr within +2% of the committed ledger; gen-100k ns/instr within 2x gen-10k)")
	}
	return nil
}

// printAll reproduces every table and figure, evaluating the corpus once
// for all of the evaluation printers.
func printAll(w io.Writer) error {
	if err := printFig4(w); err != nil {
		return err
	}
	evals, err := bench.EvalAll(bench.Variant{})
	if err != nil {
		return err
	}
	for _, subOps := range []bool{false, true} {
		if err := bench.PrintLinearity(w, evals, subOps); err != nil {
			return err
		}
	}
	bench.PrintFigure(w, evals, corpus.IntSuite)
	bench.PrintFigure(w, evals, corpus.FPSuite)
	bench.PrintSummary(w, evals)
	bench.PrintHitRates(w, evals)
	if err := bench.PrintApplications(w); err != nil {
		return err
	}
	return bench.PrintAblations(w)
}

// printFig4 reproduces the paper's worked example (Figures 2-4): the value
// ranges of x and y and the three branch probabilities 91%/20%/30%.
func printFig4(w io.Writer) error {
	const src = `
func main() {
	var y = 0;
	for (var x = 0; x < 10; x++) {
		if (x > 7) { y = 1; } else { y = x; }
		if (y == 1) {
			print(y); // Block A
		}
	}
}
`
	p, err := vrp.Compile("figure2.mini", src)
	if err != nil {
		return err
	}
	a, err := p.Analyze()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 4: results for the paper's worked example")
	fmt.Fprintln(w, "value ranges:")
	for _, v := range []string{"x.0", "x.1", "x.2", "x.3", "x.4", "x.5", "x.6", "x.7", "y.0", "y.1", "y.2", "y.3"} {
		if s, ok := a.ValueString("main", v); ok {
			fmt.Fprintf(w, "  %-5s = %s\n", v, s)
		}
	}
	fmt.Fprintln(w, "branch probabilities (paper: x<10 91%, x>7 20%, y==1 30%):")
	for _, pr := range a.Predictions() {
		fmt.Fprintf(w, "  p(true) = %.0f%%  [%s]\n", 100*pr.Prob, pr.Source)
	}
	fmt.Fprintln(w)
	return nil
}
