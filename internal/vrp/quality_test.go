package vrp

import (
	"reflect"
	"testing"

	"vrp/internal/ir"
	"vrp/internal/telemetry"
)

func qualityOf(t *testing.T, src string, mutate func(*Config)) (*Result, *telemetry.Quality) {
	t.Helper()
	p := compile(t, src)
	cfg := DefaultConfig()
	cfg.Telemetry = telemetry.New()
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := Analyze(p, cfg)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if res.Quality == nil {
		t.Fatal("Result.Quality nil with telemetry enabled")
	}
	return res, res.Quality
}

// TestQualityDigestPopulated checks the digest accounts for the whole
// program: every branch attributed to exactly one predictor bucket,
// every final cell classed, and the per-function scores present.
func TestQualityDigestPopulated(t *testing.T) {
	res, q := qualityOf(t, telemetrySrc, nil)
	if q.Branches == 0 {
		t.Fatal("no branches in quality digest")
	}
	var attributed int64
	for _, n := range q.Evidence {
		attributed += n
	}
	if attributed < q.Branches {
		t.Errorf("evidence attributes %d predictions, %d branches emitted", attributed, q.Branches)
	}
	if q.Confidence.Total() != q.Branches {
		t.Errorf("confidence histogram totals %d, want %d branches", q.Confidence.Total(), q.Branches)
	}
	var cells int64
	for _, fr := range res.Funcs {
		cells += int64(len(fr.Val))
	}
	if q.Classes.Total() != cells {
		t.Errorf("class histogram totals %d cells, program has %d registers", q.Classes.Total(), cells)
	}
	if len(q.Funcs) != len(res.Prog.Funcs) {
		t.Errorf("%d per-function scores, program has %d functions", len(q.Funcs), len(res.Prog.Funcs))
	}
	for _, fq := range q.Funcs {
		if fq.Score < 0 || fq.Score > 1 {
			t.Errorf("%s: score %v outside [0,1]", fq.Func, fq.Score)
		}
	}
	if q.CertainRatio < 0 || q.CertainRatio > 1 {
		t.Errorf("certain ratio %v outside [0,1]", q.CertainRatio)
	}
}

// TestQualityDeterministic extends the bit-identity contract to the
// quality digest: the per-cell class histogram, loss ledger, and
// per-function scores are built from the final fixpoint, so two runs
// must produce identical digests.
func TestQualityDeterministic(t *testing.T) {
	_, first := qualityOf(t, telemetrySrc, nil)
	_, second := qualityOf(t, telemetrySrc, nil)
	if !reflect.DeepEqual(first, second) {
		t.Errorf("quality digests differ between two runs:\n%v\nvs\n%v", first.Summary(), second.Summary())
	}
}

// TestQualityDisabledIsNil pins the off switch: without telemetry the
// result carries no quality digest at all.
func TestQualityDisabledIsNil(t *testing.T) {
	res := analyze(t, telemetrySrc, DefaultConfig())
	if res.Quality != nil {
		t.Fatal("Result.Quality non-nil without Config.Telemetry")
	}
}

// TestQualityLossAttribution forces early widening (MaxEvals=1) and
// checks the precision-loss ledger blames it: the widen counter must
// fire, and the certain fraction must not exceed the default run's.
func TestQualityLossAttribution(t *testing.T) {
	_, def := qualityOf(t, telemetrySrc, nil)
	_, starved := qualityOf(t, telemetrySrc, func(cfg *Config) { cfg.MaxEvals = 1 })
	if starved.Loss["widen"] == 0 {
		t.Error("MaxEvals=1 recorded no widening loss")
	}
	if starved.CertainRatio > def.CertainRatio {
		t.Errorf("starving the evaluator raised the certain ratio: %v > %v", starved.CertainRatio, def.CertainRatio)
	}
	// Starvation demotes cells to ⊥: the bottom class must grow.
	bottom := 5 // index of "bottom" in QualityClassLabels
	if starved.Classes.Counts[bottom] <= def.Classes.Counts[bottom] {
		t.Errorf("starved run has %d ⊥ cells, default %d; want strictly more",
			starved.Classes.Counts[bottom], def.Classes.Counts[bottom])
	}
}

// TestQualityEvidenceAttribution wires a named evidence source and
// checks heuristic predictions are attributed to it rather than the
// generic bucket — and that the Dempster–Shafer combination is recorded
// when more than one heuristic fires on a branch.
func TestQualityEvidenceAttribution(t *testing.T) {
	// input() is ⊥, so both branches take the heuristic fallback.
	src := `
func main() {
	if (input() > 0) { print(1); }
	if (input() < 5) { print(2); }
}
`
	_, q := qualityOf(t, src, func(cfg *Config) {
		cfg.Fallback = func(f *ir.Func, br *ir.Instr) float64 { return 0.88 }
		cfg.Evidence = func(f *ir.Func, br *ir.Instr) []EvidenceItem {
			return []EvidenceItem{{Name: "loop-branch", Prob: 0.88}, {Name: "opcode", Prob: 0.84}}
		}
	})
	if q.Evidence["loop-branch"] == 0 || q.Evidence["opcode"] == 0 {
		t.Errorf("named heuristics not attributed: %v", q.Evidence)
	}
	if q.Evidence["dempster-shafer"] == 0 {
		t.Errorf("multi-heuristic branches missing the combination entry: %v", q.Evidence)
	}
	if q.Evidence["heuristic"] != 0 {
		t.Errorf("generic bucket used despite an evidence source: %v", q.Evidence)
	}
}

// TestQualityStaleCertainRederived runs a non-converging program and
// checks the demotion path: Stats.StaleCertain counts the re-derived
// predictions, no range-certain prediction survives in a demoted
// function, and the digest mirrors the count.
func TestQualityStaleCertainRederived(t *testing.T) {
	// Mutually recursive with data-dependent descent: the
	// interprocedural fixpoint cannot close the return ranges within
	// two passes, so the functions demote.
	src := `
func odd(n) {
	if (n == 0) { return 0; }
	return even(n - 1);
}
func even(n) {
	if (n == 0) { return 1; }
	return odd(n - 1);
}
func main() {
	print(even(9));
}
`
	res, q := qualityOf(t, src, func(cfg *Config) {
		cfg.MaxPasses = 2
		cfg.RecWidenAfter = 0
	})
	if res.Stats.Converged {
		t.Skip("program converged; no demotion to exercise")
	}
	if res.Stats.StaleCertain != q.StaleCertain {
		t.Errorf("Stats.StaleCertain=%d but digest says %d", res.Stats.StaleCertain, q.StaleCertain)
	}
	demoted := map[string]bool{}
	for _, d := range res.Diagnostics {
		if d.Func != "" {
			demoted[d.Func] = true
		}
	}
	for _, fr := range res.Funcs {
		if !demoted[fr.Fn.Name] {
			continue
		}
		for br, p := range fr.BranchProb {
			if fr.BranchSource[br] == ByRange && (p == 0 || p == 1) {
				t.Errorf("%s: stale range-certain prediction survived demotion", fr.Fn.Name)
			}
		}
	}
}
