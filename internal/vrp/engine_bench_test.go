package vrp

import (
	"fmt"
	"testing"

	"vrp/internal/ir"
	"vrp/internal/irgen"
	"vrp/internal/parser"
	"vrp/internal/sem"
	"vrp/internal/ssaform"
)

func mustCompile(b *testing.B, src string) *ir.Program {
	b.Helper()
	prog, err := parser.Parse("b.mini", src)
	if err != nil {
		b.Fatal(err)
	}
	if err := sem.Check(prog); err != nil {
		b.Fatal(err)
	}
	p, err := irgen.Build(prog)
	if err != nil {
		b.Fatal(err)
	}
	if err := ssaform.Build(p); err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkAnalyzePaperExample measures one full propagation of the
// paper's worked example.
func BenchmarkAnalyzePaperExample(b *testing.B) {
	p := mustCompile(b, paperExample)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(p, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeLoopNest measures the engine on a deeper loop nest with
// derivations and interprocedural flow.
func BenchmarkAnalyzeLoopNest(b *testing.B) {
	p := mustCompile(b, `
func kernel(n, m) {
	var s = 0;
	for (var i = 0; i < n; i++) {
		for (var j = 0; j < m; j++) {
			if ((i + j) % 2 == 0) { s += i; } else { s -= j; }
		}
	}
	return s;
}
func main() {
	print(kernel(50, 20));
	print(kernel(10, 100));
}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(p, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeManyFuncs measures the driver on a wide program (32
// independent loop-nest kernels).
func BenchmarkAnalyzeManyFuncs(b *testing.B) {
	src := ""
	call := ""
	for i := 0; i < 32; i++ {
		src += fmt.Sprintf(`
func kernel%d(n, m) {
	var s = 0;
	for (var i = 0; i < n; i++) {
		for (var j = 0; j < m; j++) {
			if ((i + j) %% 2 == 0) { s += i; } else { s -= j; }
		}
	}
	return s;
}`, i)
		call += fmt.Sprintf("\tprint(kernel%d(%d, %d));\n", i, 40+i, 10+i)
	}
	src += "\nfunc main() {\n" + call + "}\n"
	p := mustCompile(b, src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(p, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDerivation isolates loop-carried derivation against brute
// force on the same program.
func BenchmarkDerivation(b *testing.B) {
	src := `
func main() {
	var s = 0;
	for (var i = 0; i < 200; i += 2) { s += 1; }
	print(s);
}`
	for _, derive := range []bool{true, false} {
		name := "derive"
		if !derive {
			name = "bruteforce"
		}
		b.Run(name, func(b *testing.B) {
			p := mustCompile(b, src)
			cfg := DefaultConfig()
			cfg.Derivation = derive
			b.ReportAllocs()
			b.ResetTimer()
			var evals int64
			for i := 0; i < b.N; i++ {
				res, err := Analyze(p, cfg)
				if err != nil {
					b.Fatal(err)
				}
				evals = res.Stats.ExprEvals + res.Stats.PhiEvals
			}
			b.ReportMetric(float64(evals), "evals")
		})
	}
}

// BenchmarkAnalyzeAllocs measures the heap cost of one analysis of a
// loop-and-call heavy program: one small allocation per range-calculator
// result, plus what the driver and the escaping result arrays allocate.
func BenchmarkAnalyzeAllocs(b *testing.B) {
	src := ""
	call := ""
	for i := 0; i < 8; i++ {
		src += fmt.Sprintf(`
func kernel%d(n, m) {
	var s = 0;
	for (var i = 0; i < n; i++) {
		for (var j = 0; j < m; j++) {
			if ((i + j) %% 2 == 0) { s += i; } else { s -= j; }
		}
	}
	return s;
}`, i)
		call += fmt.Sprintf("\tprint(kernel%d(%d, %d));\n", i, 40+i, 10+i)
	}
	src += "\nfunc main() {\n" + call + "}\n"
	p := mustCompile(b, src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(p, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
