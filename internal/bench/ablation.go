package bench

import (
	"fmt"
	"io"

	"vrp"
	"vrp/internal/corpus"
	corevrp "vrp/internal/vrp"
)

// Variants returns the standard ablation set.
func Variants() []Variant {
	return []Variant{
		{Name: "full"},
		{Name: "numeric-only", Opts: []vrp.Option{vrp.NumericOnly()}},
		{Name: "no-derivation", Opts: []vrp.Option{vrp.WithoutDerivation()}},
		{Name: "no-interproc", Opts: []vrp.Option{vrp.WithoutInterprocedural()}},
		{Name: "no-assertions", NoAssertions: true},
		{Name: "maxranges-1", Opts: []vrp.Option{vrp.WithMaxRanges(1)}},
		{Name: "maxranges-2", Opts: []vrp.Option{vrp.WithMaxRanges(2)}},
		{Name: "maxranges-8", Opts: []vrp.Option{vrp.WithMaxRanges(8)}},
		{Name: "maxranges-16", Opts: []vrp.Option{vrp.WithMaxRanges(16)}},
		{Name: "ssa-first", Opts: []vrp.Option{func(c *corevrp.Config) { c.FlowFirst = false }}},
		{Name: "with-cloning", Clone: true},
		// Sensitivity of the assumed magnitude substituted for unknown
		// symbolic variables (default 10, the paper's example scale).
		{Name: "assumed-T4", Opts: []vrp.Option{func(c *corevrp.Config) { c.Range.AssumedVarValue = 4 }}},
		{Name: "assumed-T32", Opts: []vrp.Option{func(c *corevrp.Config) { c.Range.AssumedVarValue = 32 }}},
		{Name: "assumed-T128", Opts: []vrp.Option{func(c *corevrp.Config) { c.Range.AssumedVarValue = 128 }}},
	}
}

// AblationRow is one variant's aggregate result over the whole corpus.
type AblationRow struct {
	Name       string
	MeanErrUnw float64 // mean absolute error, unweighted, pp
	MeanErrW   float64 // weighted
	RangeShare float64 // fraction of executed branches predicted from ranges
	ExprEvals  int64
	SubOps     int64
}

// RunAblations scores every variant over the whole corpus: evaluate with
// the variant's options, then take vrp's mean error and range share.
// Variants that compile alike share one interpreter pass per program.
func RunAblations() ([]AblationRow, error) {
	vs := Variants()
	evals := make([][]*ProgramEval, len(vs))
	for _, cp := range corpus.All() {
		s := CorpusSubject(cp)
		runs := map[[2]bool]*run{}
		for i, v := range vs {
			key := [2]bool{v.NoAssertions, v.Clone}
			r := runs[key]
			if r == nil {
				var err error
				if r, err = execute(s, v); err != nil {
					return nil, fmt.Errorf("%s/%w", v.Name, err)
				}
				runs[key] = r
			}
			ev, err := r.eval(v.Opts)
			if err != nil {
				return nil, fmt.Errorf("%s/%w", v.Name, err)
			}
			evals[i] = append(evals[i], ev)
		}
	}
	rows := make([]AblationRow, len(vs))
	for i, v := range vs {
		row := AblationRow{
			Name:       v.Name,
			MeanErrUnw: MeanError(evals[i], false)[PredVRP],
			MeanErrW:   MeanError(evals[i], true)[PredVRP],
		}
		nProgs := 0
		for _, ev := range evals[i] {
			if len(ev.Records) == 0 {
				continue
			}
			nProgs++
			row.RangeShare += ev.VRPShare
			row.ExprEvals += ev.Stats.ExprEvals + ev.Stats.PhiEvals
			row.SubOps += ev.Stats.SubOps
		}
		if nProgs > 0 {
			row.RangeShare /= float64(nProgs)
		}
		rows[i] = row
	}
	return rows, nil
}

// PrintAblations renders the ablation table.
func PrintAblations(w io.Writer) error {
	rows, err := RunAblations()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablations (whole corpus): mean absolute error in percentage points")
	fmt.Fprintf(w, "%-15s %8s %8s %8s %12s %12s\n", "variant", "unw", "wtd", "range%", "evals", "subops")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %8.1f %8.1f %7.0f%% %12d %12d\n",
			r.Name, r.MeanErrUnw, r.MeanErrW, 100*r.RangeShare, r.ExprEvals, r.SubOps)
	}
	fmt.Fprintln(w)
	return nil
}
