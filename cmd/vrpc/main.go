// Command vrpc compiles a Mini source file, runs value range propagation,
// and reports branch predictions and final value ranges.
//
// Usage:
//
//	vrpc [flags] file.mini
//
// Flags:
//
//	-ir          dump the SSA IR
//	-dot         dump the CFG in Graphviz DOT format, edges labelled with
//	             predicted frequencies
//	-ranges      dump final value ranges for named variables
//	-numeric     disable symbolic ranges
//	-run         execute the program; remaining arguments are the input
//	             stream (integers)
//	-profile     with -run (required), print observed branch probabilities
//	             next to the predictions
//	-trace FILE  write the run's span tree (parse, ssa, vrp with its
//	             callgraph/pass/engine children) as a Chrome
//	             trace_event JSON file (open in chrome://tracing or Perfetto)
//	-telemetry   run with telemetry and print the run summary (engine
//	             steps, worklist peaks, widenings, histograms) to stderr
//	-explain F   explain one branch prediction: F is func:line (or just
//	             func when it has a single branch); prints the derivation
//	             chain behind the probability, or the Ball–Larus evidence
//	             when the controlling range was ⊥
//
// Analysis diagnostics (non-convergence, degraded functions) are printed
// to standard error; a run that did not converge exits with status 0 but
// says so, since the reported ranges have been conservatively demoted.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"vrp"
	"vrp/internal/ir"
	"vrp/internal/telemetry"
)

func main() {
	var (
		dumpIR     = flag.Bool("ir", false, "dump the SSA IR")
		dumpDot    = flag.Bool("dot", false, "dump the CFG in Graphviz DOT format (edges labelled with predicted frequencies)")
		dumpRanges = flag.Bool("ranges", false, "dump final value ranges of named variables")
		numeric    = flag.Bool("numeric", false, "disable symbolic ranges")
		run        = flag.Bool("run", false, "execute the program on the inputs given after the file name")
		profile    = flag.Bool("profile", false, "with -run, print observed branch probabilities")
		traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON file of the compile and analysis run")
		summary    = flag.Bool("telemetry", false, "print the telemetry summary of the analysis run to stderr")
		explain    = flag.String("explain", "", "explain the branch at func:line (func alone if it has one branch)")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: vrpc [flags] file.mini [inputs...]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *profile && !*run {
		fmt.Fprintln(os.Stderr, "vrpc: -profile requires -run (there is no observed profile without executing the program)")
		os.Exit(2)
	}
	name := flag.Arg(0)
	src, err := os.ReadFile(name)
	if err != nil {
		fatal(err)
	}
	var tr *telemetry.Trace // nil: tracing off
	if *traceOut != "" {
		tr = telemetry.NewTrace()
	}
	prog, err := vrp.CompileWith(name, string(src), vrp.CompileOptions{Trace: tr, TraceParent: telemetry.NoSpan})
	if err != nil {
		fatal(err)
	}
	if *dumpIR {
		fmt.Print(prog.IR.String())
	}

	var opts []vrp.Option
	if *numeric {
		opts = append(opts, vrp.NumericOnly())
	}
	if *summary {
		opts = append(opts, vrp.WithTelemetry())
	}
	vrpSpan := tr.Start(telemetry.NoSpan, "phase", "vrp")
	analysis, err := prog.Analyze(append(opts, vrp.WithTrace(tr, vrpSpan))...)
	tr.End(vrpSpan)
	if err != nil {
		fatal(err)
	}
	for _, d := range analysis.Diagnostics() {
		fmt.Fprintln(os.Stderr, "vrpc: diagnostic:", d)
	}
	if !analysis.Converged() {
		fmt.Fprintln(os.Stderr, "vrpc: warning: analysis did not converge; optimistic ranges were demoted to ⊥")
	}
	if tr != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		spans := tr.Spans()
		if err := telemetry.WriteSpanChromeTrace(f, spans); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "vrpc: wrote %d trace spans to %s\n", len(spans), *traceOut)
	}
	if *summary {
		fmt.Fprint(os.Stderr, analysis.Telemetry().Summary())
	}
	if *explain != "" {
		fn, line := *explain, 0
		if i := strings.LastIndex(fn, ":"); i >= 0 {
			n, err := strconv.Atoi(fn[i+1:])
			if err != nil {
				fatal(fmt.Errorf("bad -explain target %q: want func or func:line", *explain))
			}
			fn, line = fn[:i], n
		}
		be, err := analysis.ExplainBranch(fn, line)
		if err != nil {
			fatal(err)
		}
		fmt.Print(be.String())
		return
	}
	if *dumpDot {
		prog.IR.WriteDot(os.Stdout, func(f *ir.Func, e *ir.Edge) string {
			fr := analysis.Result.Funcs[f]
			if fr == nil || e.ID >= len(fr.EdgeFreq) {
				return ""
			}
			return fmt.Sprintf("%.3g", fr.EdgeFreq[e.ID])
		})
		return
	}

	var input []int64
	for _, a := range flag.Args()[1:] {
		v, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			fatal(fmt.Errorf("bad input value %q: %w", a, err))
		}
		input = append(input, v)
	}
	observed := map[*ir.Instr]float64{}
	if *run {
		prof, err := prog.Run(input)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("output: %v (result %d, %d steps)\n", prof.Output, prof.Result, prof.Steps)
		if *profile {
			for _, f := range prog.IR.Funcs {
				for _, b := range f.Blocks {
					if t := b.Terminator(); t != nil && t.Op == ir.OpBr {
						if p, ok := prof.BranchProb(f, t); ok {
							observed[t] = p
						}
					}
				}
			}
		}
	}

	fmt.Println("branch predictions (probability of the true edge):")
	for _, p := range analysis.Predictions() {
		line := fmt.Sprintf("  %s:%s  p(true)=%.3f  [%s]", p.Func, p.Pos, p.Prob, p.Source)
		if obs, ok := observed[p.Branch]; ok {
			line += fmt.Sprintf("  observed=%.3f  err=%.1fpp", obs, 100*absf(p.Prob-obs))
		}
		fmt.Println(line)
	}

	if *dumpRanges {
		fmt.Println("final value ranges:")
		for _, f := range prog.IR.Funcs {
			var names []string
			for _, n := range f.Names {
				names = append(names, n)
			}
			sort.Strings(names)
			seen := map[string]bool{}
			for _, n := range names {
				if seen[n] {
					continue
				}
				seen[n] = true
				if s, ok := analysis.ValueString(f.Name, n); ok && s != "⊤" {
					fmt.Printf("  %s.%s = %s\n", f.Name, n, s)
				}
			}
		}
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vrpc:", err)
	os.Exit(1)
}
