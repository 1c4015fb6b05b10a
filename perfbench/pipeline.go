package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"vrp"
	"vrp/internal/callgraph"
	"vrp/internal/freq"
	"vrp/internal/heuristics"
	"vrp/internal/ir"
	"vrp/internal/irgen"
	"vrp/internal/parser"
	"vrp/internal/sem"
	"vrp/internal/ssaform"
	corevrp "vrp/internal/vrp"
)

// pred is one branch prediction as a user sees it, plus the block it
// controls so an interpreter profile of the same source can score it.
type pred struct {
	fn        string
	line, col int
	prob      float64
	source    string
	block     int // ID of the branch's block in its function
}

// outcome is what one operation produced for one program.
type outcome struct {
	res    *corevrp.Result
	preds  []pred
	calls  []float64 // Frequencies: expected invocations of each function, program order
	instrs int

	// Filled by the layer-by-layer path only.
	irgenInstrs, ssaInstrs, sccs int
}

// runFacade is the untraced operation: source to predictions and
// frequencies through the public vrp facade, exactly as a user calls it.
func runFacade(name, src string, workers int, opts ...vrp.Option) (*outcome, error) {
	p, err := vrp.Compile(name, src)
	if err != nil {
		return nil, err
	}
	a, err := p.Analyze(append([]vrp.Option{vrp.WithWorkers(workers)}, opts...)...)
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	out := &outcome{res: a.Result, instrs: p.IR.NumInstrs()}
	for _, pr := range a.Predictions() {
		out.preds = append(out.preds, pred{fn: pr.Func, line: pr.Pos.Line, col: pr.Pos.Col,
			prob: pr.Prob, source: pr.Source, block: pr.Branch.Block.ID})
	}
	out.calls = invocations(p.IR, a.Frequencies())
	return out, nil
}

// frontEnd runs parser (lexer included), sem, irgen and ssaform one by
// one, each under its own span.
func frontEnd(name, src string, tr *tracer, op int64, parent int) (*ir.Program, int, error) {
	s := tr.start("parser", op, parent)
	astProg, err := parser.Parse(name, src)
	tr.end(s)
	if err != nil {
		return nil, 0, fmt.Errorf("parse: %w", err)
	}
	s = tr.start("sem", op, parent)
	err = sem.Check(astProg)
	tr.end(s)
	if err != nil {
		return nil, 0, fmt.Errorf("check: %w", err)
	}
	s = tr.start("irgen", op, parent)
	p, err := irgen.Build(astProg)
	tr.end(s)
	if err != nil {
		return nil, 0, err
	}
	irgenInstrs := p.NumInstrs()
	s = tr.start("ssaform", op, parent)
	err = ssaform.BuildWith(p, ssaform.Options{})
	tr.end(s)
	if err != nil {
		return nil, 0, err
	}
	return p, irgenInstrs, nil
}

// runLayers is the traced operation: the same work as runFacade, but
// calling each layer's entry point itself so every layer gets a span.
// Its predictions must be bit-identical to runFacade's.
func runLayers(name, src string, workers int, tr *tracer, op int64, parent int) (*outcome, error) {
	p, irgenInstrs, err := frontEnd(name, src, tr, op, parent)
	if err != nil {
		return nil, err
	}
	out := &outcome{instrs: p.NumInstrs(), irgenInstrs: irgenInstrs, ssaInstrs: p.NumInstrs()}

	s := tr.start("callgraph", op, parent)
	out.sccs = len(callgraph.Build(p).SCCs)
	tr.end(s)

	s = tr.start("heuristics", op, parent)
	bl := heuristics.NewBallLarus(p)
	tr.end(s)

	// The facade's configuration, built by hand.
	cfg := corevrp.DefaultConfig()
	cfg.Fallback = bl.Prob
	cfg.Evidence = func(f *ir.Func, br *ir.Instr) []corevrp.EvidenceItem {
		evs := bl.Explain(f, br)
		items := make([]corevrp.EvidenceItem, len(evs))
		for i, ev := range evs {
			items[i] = corevrp.EvidenceItem{Name: ev.Name, Prob: ev.Prob}
		}
		return items
	}
	cfg.Workers = workers
	s = tr.start("vrp", op, parent)
	res, err := corevrp.Analyze(p, cfg)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	out.res = res
	for _, br := range res.Branches() {
		out.preds = append(out.preds, pred{fn: br.Fn.Name, line: br.Instr.Pos.Line, col: br.Instr.Pos.Col,
			prob: br.Prob, source: br.Source.String(), block: br.Instr.Block.ID})
	}

	s = tr.start("freq", op, parent)
	pf := freq.ComputeProgram(p, func(f *ir.Func, br *ir.Instr) (float64, bool) {
		fr := res.Funcs[f]
		if fr == nil {
			return 0, false
		}
		pr, ok := fr.BranchProb[br]
		return pr, ok
	})
	tr.end(s)
	out.calls = invocations(p, pf)
	return out, nil
}

func invocations(p *ir.Program, pf *freq.ProgramFrequencies) []float64 {
	calls := make([]float64, len(p.Funcs))
	for i, f := range p.Funcs {
		calls[i] = pf.Invocations[f]
	}
	return calls
}

// digest fingerprints the predictions as printed at %.17g: equal digests
// mean byte-identical predictions.
func (o *outcome) digest() string {
	h := sha256.New()
	for _, p := range o.preds {
		fmt.Fprintf(h, "%s %d:%d %.17g %s\n", p.fn, p.line, p.col, p.prob, p.source)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// reference is the output every repeat of an operation must reproduce.
type reference struct {
	digest string
	calls  []float64
}

func referenceOf(o *outcome) reference { return reference{digest: o.digest(), calls: o.calls} }

// callsTolerance bounds the relative difference allowed between two runs'
// expected invocation counts. Frequencies solves the call graph's fixed
// point by iterating maps, so the summation order, and with it the last
// bits of a count, can change from run to run on recursive programs.
const callsTolerance = 1e-9

// mismatch says how out differs from the reference, or returns "". The
// predictions must match bit for bit, the invocation counts to within
// callsTolerance.
func (r reference) mismatch(out *outcome) string {
	if dg := out.digest(); dg != r.digest {
		return fmt.Sprintf("prediction digest %.12s differs from the reference's %.12s", dg, r.digest)
	}
	if len(out.calls) != len(r.calls) {
		return fmt.Sprintf("%d invocation counts, the reference has %d", len(out.calls), len(r.calls))
	}
	for i, c := range out.calls {
		if math.Abs(c-r.calls[i]) > callsTolerance*math.Max(math.Abs(c), math.Abs(r.calls[i])) {
			return fmt.Sprintf("function %d: expected invocations %.17g, the reference's %.17g", i, c, r.calls[i])
		}
	}
	return ""
}

// rangeCount counts predictions decided by a value range.
func rangeCount(preds []pred) int {
	n := 0
	for _, p := range preds {
		if p.source == "range" {
			n++
		}
	}
	return n
}
