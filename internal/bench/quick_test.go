package bench_test

import (
	"os"
	"testing"

	"vrp/internal/bench"
)

func TestQuickSummary(t *testing.T) {
	evals, err := bench.EvalAll(bench.Variant{})
	if err != nil {
		t.Fatal(err)
	}
	bench.PrintSummary(os.Stdout, evals)
}
