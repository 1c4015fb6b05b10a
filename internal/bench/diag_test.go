package bench_test

import (
	"fmt"
	"testing"

	"vrp/internal/bench"
	"vrp/internal/corpus"
)

// TestDiagProgram prints each branch's predictions for one program under
// -v; diagnostic only.
func TestDiagProgram(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("diagnostic under -v only")
	}
	for _, name := range []string{"matmul", "dotprod"} {
		cp := corpus.ByName(name)
		ev, err := bench.EvalProgram(bench.CorpusSubject(cp), bench.Variant{})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("== %s (instrs=%d, vrpShare=%.2f)\n", name, ev.Instrs, ev.VRPShare)
		for _, r := range ev.Records {
			fmt.Printf("  %-8s w=%8.0f actual=%.3f vrp=%.3f(%s) bl=%.3f prof=%.3f\n",
				r.Func, r.Weight, r.Actual, r.Pred[bench.PredVRP], r.Source,
				r.Pred[bench.PredBallLarus], r.Pred[bench.PredProfile])
		}
	}
}
