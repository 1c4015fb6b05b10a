package bench

import (
	"testing"

	"vrp"
	"vrp/internal/corpus"
	"vrp/internal/genprog"
	"vrp/internal/ir"
	corevrp "vrp/internal/vrp"
)

// benchAnalyze analyzes p once per iteration — a profiling target for the vrp phase of the perf ledger
// (go test -bench GenAnalyze -cpuprofile ...).
func benchAnalyze(b *testing.B, p *ir.Program) {
	b.Helper()
	cfg := defaultEngineConfig(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := corevrp.Analyze(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergedAnalyze analyzes the full merged corpus.
func BenchmarkMergedAnalyze(b *testing.B) {
	merged, err := mergedProgram(corpus.All(), nil)
	if err != nil {
		b.Fatal(err)
	}
	benchAnalyze(b, merged)
}

// BenchmarkGenAnalyze analyzes the default generated program.
func BenchmarkGenAnalyze(b *testing.B) {
	p, err := vrp.Compile("gen.mini", genprog.Source(genprog.Default()))
	if err != nil {
		b.Fatal(err)
	}
	benchAnalyze(b, p.IR)
}

// BenchmarkGen1MAnalyze analyzes the ~1.2M-instruction preset, the tier
// the perf ledger leaves out. One iteration takes tens of seconds and
// a few GB of heap, so run it alone:
// go test ./internal/bench -run '^$' -bench Gen1M -benchtime 1x.
func BenchmarkGen1MAnalyze(b *testing.B) {
	cfg, _ := genprog.Preset("1m")
	p, err := vrp.Compile("gen-1m.mini", genprog.Source(cfg))
	if err != nil {
		b.Fatal(err)
	}
	benchAnalyze(b, p.IR)
}
