package vrp

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"vrp/internal/telemetry"
)

// telemetrySrc mixes the behaviours the snapshot must account for: a
// derived loop, interprocedural calls analyzed across SCCs, branches and
// assertions — enough to populate every counter and histogram.
const telemetrySrc = `
func clamp(x) {
	if (x > 100) { return 100; }
	return x;
}
func sum(n) {
	var s = 0;
	for (var i = 0; i < n; i++) {
		s = s + clamp(i);
	}
	return s;
}
func main() {
	print(sum(50));
}
`

func telemetrySnapshot(t *testing.T) (*Result, *telemetry.Snapshot) {
	t.Helper()
	res, _ := tracedAnalyze(t, DefaultConfig())
	return res, res.Telemetry
}

// tracedAnalyze analyzes telemetrySrc with telemetry and a span tree
// attached, the tree rooted at a "vrp" span as in a vrpd request.
func tracedAnalyze(t *testing.T, cfg Config) (*Result, []telemetry.Span) {
	t.Helper()
	p := compile(t, telemetrySrc)
	cfg.Telemetry = telemetry.New()
	cfg.Trace = telemetry.NewTrace()
	cfg.TraceParent = cfg.Trace.Start(telemetry.NoSpan, "phase", "vrp")
	res, err := Analyze(p, cfg)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	cfg.Trace.End(cfg.TraceParent)
	if res.Telemetry == nil {
		t.Fatal("Result.Telemetry is nil with telemetry enabled")
	}
	return res, cfg.Trace.Spans()
}

// spanKeys renders the timing-free identity of every span — its
// category, name, parent's name and outcome — in creation order.
func spanKeys(spans []telemetry.Span) []string {
	keys := make([]string, len(spans))
	for i, sp := range spans {
		parent := ""
		if sp.Parent != telemetry.NoSpan {
			parent = spans[sp.Parent].Name
		}
		keys[i] = sp.Cat + "|" + sp.Name + "|" + parent + "|" + sp.Args["outcome"]
	}
	return keys
}

// TestTelemetryDeterministic is the telemetry half of the driver's
// bit-identity contract: the aggregated snapshot — counters and
// histograms — and the span tree's structure must be identical from run
// to run, once wall-clock fields are canonicalized away.
func TestTelemetryDeterministic(t *testing.T) {
	first, firstSpans := tracedAnalyze(t, DefaultConfig())
	second, secondSpans := tracedAnalyze(t, DefaultConfig())
	a, b := first.Telemetry.Canon(), second.Telemetry.Canon()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("snapshots differ between two runs:\n%v\nvs\n%v", a.Summary(), b.Summary())
	}
	if ka, kb := spanKeys(firstSpans), spanKeys(secondSpans); !reflect.DeepEqual(ka, kb) {
		t.Errorf("span trees differ:\nfirst:  %v\nsecond: %v", ka, kb)
	}
}

// TestTelemetryMatchesStats cross-checks the snapshot against the
// independently counted Stats: runs and skips must agree exactly, and the
// pass count and wall-clock slots must line up.
func TestTelemetryMatchesStats(t *testing.T) {
	res, snap := telemetrySnapshot(t)
	if snap.Totals.Runs != res.Stats.FuncsAnalyzed {
		t.Errorf("telemetry runs = %d, stats FuncsAnalyzed = %d", snap.Totals.Runs, res.Stats.FuncsAnalyzed)
	}
	if snap.Totals.Skips != res.Stats.FuncsSkipped {
		t.Errorf("telemetry skips = %d, stats FuncsSkipped = %d", snap.Totals.Skips, res.Stats.FuncsSkipped)
	}
	if snap.Totals.DeriveHits != res.Stats.DerivedLoops {
		t.Errorf("telemetry derive hits = %d, stats DerivedLoops = %d", snap.Totals.DeriveHits, res.Stats.DerivedLoops)
	}
	if snap.Passes != res.Stats.Passes || len(snap.PassWallNs) != snap.Passes {
		t.Errorf("passes: snapshot %d (%d wall slots), stats %d", snap.Passes, len(snap.PassWallNs), res.Stats.Passes)
	}
	if snap.Totals.Steps <= 0 {
		t.Error("no engine steps recorded")
	}
	if snap.Totals.FlowPeak <= 0 || snap.Totals.SSAPeak <= 0 {
		t.Errorf("worklist peaks not recorded: flow=%d ssa=%d", snap.Totals.FlowPeak, snap.Totals.SSAPeak)
	}
	if snap.Totals.Asserts <= 0 || snap.Totals.PhiMerges <= 0 {
		t.Errorf("lattice counters not recorded: asserts=%d phi-merges=%d", snap.Totals.Asserts, snap.Totals.PhiMerges)
	}
	// One per-function slot per call-graph function, in index order.
	if len(snap.Funcs) != len(res.Prog.Funcs) {
		t.Errorf("snapshot has %d function slots, program has %d", len(snap.Funcs), len(res.Prog.Funcs))
	}
	// Histograms are populated and account for every final register value.
	total := 0
	for _, fr := range res.Funcs {
		total += len(fr.Val)
	}
	if got := snap.RangeSetSize.Total(); got != int64(total) {
		t.Errorf("range-set-size histogram totals %d values, program has %d registers", got, total)
	}
	if snap.PassRuns.Total() != int64(len(res.Prog.Funcs)) {
		t.Errorf("pass-runs histogram totals %d, want one sample per function (%d)", snap.PassRuns.Total(), len(res.Prog.Funcs))
	}
}

// TestTelemetryDisabledIsFree pins the other half of the contract: with
// telemetry off (the default), the result carries no snapshot and the
// engine hot path takes the nil fast path (the zero-allocation guarantee
// itself is pinned by AllocsPerRun in internal/telemetry).
func TestTelemetryDisabledIsFree(t *testing.T) {
	res := analyze(t, telemetrySrc, DefaultConfig())
	if res.Telemetry != nil {
		t.Fatal("Result.Telemetry non-nil without Config.Telemetry")
	}
}

// TestTelemetryDegradedRun verifies the failure paths surface in the
// snapshot and the span tree: a step-budget degradation shows up as a
// degraded run in the function's slot, as a degraded engine outcome, and
// as a diag span under the analysis span.
func TestTelemetryDegradedRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxEngineSteps = 1
	res, spans := tracedAnalyze(t, cfg)
	if res.Telemetry.Totals.Degraded == 0 {
		t.Error("no degraded runs recorded")
	}
	diags, degraded := 0, 0
	for _, sp := range spans {
		switch {
		case sp.Cat == "diag":
			diags++
			if sp.Parent != 0 || sp.Dur != 0 || !strings.HasPrefix(sp.Name, "step-budget ") {
				t.Errorf("diag span %q: parent %d dur %d, want a zero-duration step-budget mark under the vrp span",
					sp.Name, sp.Parent, sp.Dur)
			}
		case sp.Cat == "engine" && sp.Args["outcome"] == "degraded:step-budget":
			degraded++
		}
	}
	if diags != len(res.Diagnostics) || diags == 0 {
		t.Errorf("%d diag spans for %d diagnostics", diags, len(res.Diagnostics))
	}
	if int64(degraded) != res.Telemetry.Totals.Degraded {
		t.Errorf("%d degraded engine spans, telemetry counts %d", degraded, res.Telemetry.Totals.Degraded)
	}
}

// TestTelemetryTraceExport round-trips a real analysis through the Chrome
// trace writer: the JSON must parse and hold one record per span plus the
// thread-name row, every engine run must be a span under its pass, and a
// function the dirty set skipped must appear as a zero-duration skip span
// under its pass.
func TestTelemetryTraceExport(t *testing.T) {
	res, spans := tracedAnalyze(t, DefaultConfig())
	var buf bytes.Buffer
	if err := telemetry.WriteSpanChromeTrace(&buf, spans); err != nil {
		t.Fatalf("WriteSpanChromeTrace: %v", err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if want := len(spans) + 1; len(parsed.TraceEvents) != want {
		t.Errorf("trace has %d records, want %d spans + 1 thread row", len(parsed.TraceEvents), len(spans))
	}
	cats := map[string]int{}
	for _, ev := range parsed.TraceEvents {
		if ev.Ph == "X" {
			cats[ev.Cat]++
		}
	}
	if int64(cats["skip"]) != res.Stats.FuncsSkipped || cats["skip"] == 0 {
		t.Errorf("%d skip spans, Stats.FuncsSkipped = %d", cats["skip"], res.Stats.FuncsSkipped)
	}
	if int64(cats["engine"]) != res.Stats.FuncsAnalyzed {
		t.Errorf("%d engine spans, Stats.FuncsAnalyzed = %d", cats["engine"], res.Stats.FuncsAnalyzed)
	}
	for _, sp := range spans {
		underPass := sp.Parent != telemetry.NoSpan && strings.HasPrefix(spans[sp.Parent].Name, "pass ")
		if sp.Cat == "skip" && (sp.Dur != 0 || !underPass) {
			t.Errorf("skip span %q: dur %d parent %q, want a zero-duration mark under a pass",
				sp.Name, sp.Dur, spans[sp.Parent].Name)
		}
		if sp.Cat == "engine" && !underPass {
			t.Errorf("engine span %q parented on %q, want a pass", sp.Name, spans[sp.Parent].Name)
		}
	}
}
