package vrp_test

import (
	"strings"
	"testing"

	"vrp"
	"vrp/internal/telemetry"
)

// TestWithTraceSpans: compiling and analyzing under one trace yields a
// well-formed span tree — compile phases under the caller's parent,
// driver structure (callgraph → pass → engine) under the span
// passed to WithTrace — and bit-identical predictions to an untraced run.
func TestWithTraceSpans(t *testing.T) {
	tr := telemetry.NewTrace()
	root := tr.Start(telemetry.NoSpan, "request", "test")

	p, err := vrp.CompileWith("q.mini", quickSrc, vrp.CompileOptions{Trace: tr, TraceParent: root})
	if err != nil {
		t.Fatal(err)
	}
	vrpSpan := tr.Start(root, "phase", "vrp")
	a, err := p.Analyze(vrp.WithTrace(tr, vrpSpan))
	if err != nil {
		t.Fatal(err)
	}
	tr.End(vrpSpan)
	tr.End(root)
	spans := tr.Spans()

	byName := map[string][]telemetry.Span{}
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	for _, name := range []string{"parse", "ssa", "vrp", "callgraph", "pass 0"} {
		if len(byName[name]) == 0 {
			t.Fatalf("no %q span recorded; have %v", name, names(spans))
		}
	}
	if got := byName["parse"][0].Parent; got != root {
		t.Errorf("parse span parent = %d, want the caller's root %d", got, root)
	}
	if got := byName["callgraph"][0].Parent; got != vrpSpan {
		t.Errorf("callgraph span parent = %d, want the WithTrace parent %d", got, vrpSpan)
	}
	if got := byName["pass 0"][0].Parent; got != vrpSpan {
		t.Errorf("pass 0 span parent = %d, want the WithTrace parent %d", got, vrpSpan)
	}

	// One engine span per function run, parented on its pass.
	engines := 0
	for _, sp := range spans {
		if sp.Cat != "engine" {
			continue
		}
		engines++
		parent := spans[sp.Parent]
		if !strings.HasPrefix(parent.Name, "pass ") {
			t.Errorf("engine span %q parented on %q, want a pass", sp.Name, parent.Name)
		}
		if sp.Args["outcome"] == "" {
			t.Errorf("engine span %q has no outcome annotation", sp.Name)
		}
	}
	if engines == 0 {
		t.Error("no engine spans recorded")
	}
	for i, sp := range spans {
		if sp.Dur < 0 {
			t.Errorf("span %d (%s) never ended", i, sp.Name)
		}
	}

	// Tracing must not perturb results.
	plain, err := p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	traced := a.Predictions()
	want := plain.Predictions()
	if len(traced) != len(want) {
		t.Fatalf("traced run has %d predictions, untraced %d", len(traced), len(want))
	}
	for i := range want {
		if traced[i].Prob != want[i].Prob {
			t.Errorf("prediction %d: traced %v != untraced %v", i, traced[i].Prob, want[i].Prob)
		}
	}
}

func names(spans []telemetry.Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}
