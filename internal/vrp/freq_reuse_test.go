package vrp

import (
	"testing"

	"vrp/internal/freq"
)

// TestFreqFactoredOncePerFunctionAcrossPasses pins the driver-level
// factor-once guarantee: a multi-pass analysis builds exactly one freq
// factorization per function (the engineScratch's Solver, constructed on
// the first engine run and reused by every later pass), while the solve
// count grows with the passes — re-solves change only the right-hand
// side, never the factored elimination structure.
func TestFreqFactoredOncePerFunctionAcrossPasses(t *testing.T) {
	p := compileSrc(t, "reuse.mini", `
func work(n) {
	var s = 0;
	for (var i = 0; i < n; i += 1) {
		if (s < 40) { s += i; } else { s -= 1; }
	}
	return s;
}
func main() {
	var t = 0;
	for (var k = 0; k < 8; k += 1) {
		t += work(k + 3);
	}
	print(t);
}`)
	f0, s0 := freq.Stats()
	res, err := Analyze(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f1, s1 := freq.Stats()
	if res.Stats.Passes < 2 {
		t.Fatalf("want a multi-pass run to make reuse observable, got %d pass(es)", res.Stats.Passes)
	}
	factored, solved := f1-f0, s1-s0
	if want := int64(len(p.Funcs)); factored != want {
		t.Fatalf("analysis with %d passes factored %d times, want exactly one per function (%d)",
			res.Stats.Passes, factored, want)
	}
	if solved <= factored {
		t.Fatalf("got %d solves for %d factorizations; multi-pass re-solves should dominate", solved, factored)
	}
}
