package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"vrp"
	"vrp/internal/corpus"
)

// certainSrc has a branch VRP proves always taken (x < 100 inside a loop
// bounded by 10), so it gets a range-certain P(true) = 1.
const certainSrc = `func main() {
	var n = 0;
	for (var x = 0; x < 10; x++) {
		if (x < 100) { n += 1; }
		if (x > 7) { n += 2; }
	}
	print(n);
}
`

// certainFixture compiles, profiles and analyzes certainSrc, and returns
// the oracle plus the facade's predictions, with the index of the
// range-certain one.
func certainFixture(t *testing.T) (profileOracle, *outcome, int) {
	t.Helper()
	p, err := vrp.Compile("certain.mini", certainSrc)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runFacade("certain.mini", certainSrc, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range out.preds {
		if pr.source == "range" && pr.prob == 1 {
			return newProfileOracle(p.IR, prof), out, i
		}
	}
	t.Fatalf("no range-certain prediction in %+v", out.preds)
	return nil, nil, 0
}

// doctored returns a copy of preds with prediction i's probability set.
func doctored(preds []pred, i int, prob float64) []pred {
	d := append([]pred(nil), preds...)
	d[i].prob = prob
	return d
}

func TestCorpusCheckFiresOnContradictedCertainPrediction(t *testing.T) {
	o, out, i := certainFixture(t)
	cp := corpusProg{cp: &corpus.Program{Name: "certain"}, oracle: o}
	ref := referenceOf(out)

	rep := newReport()
	checkCorpusOp(rep, cp, out, ref)
	if rep.failed != 0 {
		t.Fatalf("undoctored output failed: %v", rep.failures)
	}

	// Claim the always-taken branch is never taken: the interpreter
	// contradicts it.
	bad := &outcome{preds: doctored(out.preds, i, 0), calls: out.calls}
	checkCorpusOp(rep, cp, bad, ref)
	if rep.failed != 1 || !strings.Contains(rep.failures[0], "contradicted") {
		t.Fatalf("contradiction not caught: failed=%d %v", rep.failed, rep.failures)
	}
}

func TestCorpusCheckFiresOnChangedPrediction(t *testing.T) {
	o, out, _ := certainFixture(t)
	ref := referenceOf(out)
	// A non-certain prediction moved by one ulp: no contradiction, but
	// no longer the reference round's bytes.
	j := -1
	for k, pr := range out.preds {
		if pr.prob != 0 && pr.prob != 1 {
			j = k
		}
	}
	if j < 0 {
		t.Fatal("fixture has no uncertain prediction")
	}
	bad := &outcome{preds: doctored(out.preds, j, math.Nextafter(out.preds[j].prob, 1)), calls: out.calls}
	rep := newReport()
	checkCorpusOp(rep, corpusProg{cp: &corpus.Program{Name: "certain"}, oracle: o}, bad, ref)
	if rep.failed != 1 || !strings.Contains(rep.failures[0], "digest") {
		t.Fatalf("changed prediction not caught: failed=%d %v", rep.failed, rep.failures)
	}
}

func TestReferenceToleratesOnlyLastBitsOfFrequencies(t *testing.T) {
	_, out, _ := certainFixture(t)
	ref := referenceOf(out)
	moved := func(rel float64) *outcome {
		calls := append([]float64(nil), out.calls...)
		calls[0] *= 1 + rel
		return &outcome{preds: out.preds, calls: calls}
	}
	if m := ref.mismatch(moved(4e-16)); m != "" {
		t.Fatalf("a last-bits difference failed: %s", m)
	}
	if m := ref.mismatch(moved(1e-6)); !strings.Contains(m, "invocations") {
		t.Fatalf("a real frequency change not caught: %q", m)
	}
}

func TestGenCheckFiresOnDigestMismatch(t *testing.T) {
	o, out, i := certainFixture(t)
	ref := referenceOf(out)
	rep := newReport()
	checkGenOp(rep, 0, o, out, ref)
	if rep.failed != 0 {
		t.Fatalf("undoctored output failed: %v", rep.failures)
	}
	bad := &outcome{preds: doctored(out.preds, i, 0.999), calls: out.calls}
	checkGenOp(rep, 1, o, bad, ref)
	if rep.failed != 1 || !strings.Contains(rep.failures[0], "digest") {
		t.Fatalf("digest mismatch not caught: failed=%d %v", rep.failed, rep.failures)
	}
	// Reproduced output, but a certain prediction the interpreter
	// contradicts.
	bad = &outcome{preds: doctored(out.preds, i, 0), calls: out.calls}
	checkGenOp(rep, 2, o, bad, referenceOf(bad))
	if rep.failed != 2 || !strings.Contains(rep.failures[1], "contradicted") {
		t.Fatalf("contradiction not caught: failed=%d %v", rep.failed, rep.failures)
	}
}

func TestLayersMatchFacade(t *testing.T) {
	facade, err := runFacade("certain.mini", certainSrc, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	op := tr.newOp()
	root := tr.start("program", op, -1)
	layers, err := runLayers("certain.mini", certainSrc, 2, tr, op, root)
	tr.end(root)
	if err != nil {
		t.Fatal(err)
	}
	if m := referenceOf(facade).mismatch(layers); m != "" {
		t.Fatalf("layer-by-layer output differs from the facade's: %s", m)
	}
	self := selfTimes(tr.snapshot())
	for _, name := range []string{"parser", "sem", "irgen", "ssaform", "callgraph", "heuristics", "vrp", "freq"} {
		if _, ok := self[name]; !ok {
			t.Errorf("no %s span", name)
		}
	}
}

func TestEditCheckFiresOnDoctoredBody(t *testing.T) {
	srv := newOracleServer(2)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(certainSrc)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	body := rec.Body.Bytes()
	c, err := checkResponse(srv, certainSrc, body, 0, nil)
	if err != nil {
		t.Fatalf("undoctored body failed: %v", err)
	}
	if len(c.preds) == 0 {
		t.Fatal("no predictions paired with branches")
	}

	// Any byte changed: no longer the cold server's body.
	bad := bytes.Replace(body, []byte(`"prob":1`), []byte(`"prob":0`), 1)
	if bytes.Equal(bad, body) {
		t.Fatal("fixture body has no certain prediction to doctor")
	}
	if _, err := checkResponse(srv, certainSrc, bad, 0, nil); err == nil || !strings.Contains(err.Error(), "differs") {
		t.Fatalf("doctored body not caught: %v", err)
	}
}

func TestWerr(t *testing.T) {
	o := profileOracle{"f": {1: {taken: 3, notTaken: 1}, 2: {taken: 0, notTaken: 4}, 3: {}}}
	preds := []pred{
		{fn: "f", block: 1, prob: 0.5}, // |0.5-0.75| = 25pp, weight 4
		{fn: "f", block: 2, prob: 0.5}, // |0.5-0| = 50pp, weight 4
		{fn: "f", block: 3, prob: 0.9}, // never executed: no weight
	}
	w, ok := o.werr(preds)
	if !ok || w != 37.5 {
		t.Fatalf("werr = %v, %v; want 37.5", w, ok)
	}
	if _, ok := o.werr(preds[2:]); ok {
		t.Fatal("werr of unexecuted branches should not be ok")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 10 * ms},
		{Name: "a", Parent: 0, Start: 1 * ms, End: 4 * ms},
		{Name: "b", Parent: 0, Start: 3 * ms, End: 6 * ms}, // overlaps a
		{Name: "c", Parent: 2, Start: 4 * ms, End: 5 * ms},
		{Name: "open", Parent: 0, Start: 7 * ms, End: -1}, // never ended: ignored
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"root": 5 * ms, "a": 3 * ms, "b": 2 * ms, "c": 1 * ms}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self(%s) = %v, want %v", k, got[k], v)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestEditScheduleDistinctAndSeeded(t *testing.T) {
	a, b := editSchedule(1, 56, 400), editSchedule(1, 56, 400)
	c := editSchedule(2, 56, 400)
	seen := map[editReq]bool{}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 1 gave two schedules at %d", i)
		}
		same = same && a[i] == c[i]
		if i%editRepeatEvery == editRepeatEvery-1 {
			if !seen[a[i]] {
				t.Fatalf("request %d repeats nothing earlier", i)
			}
			continue
		}
		if seen[a[i]] {
			t.Fatalf("request %d repeats an edit off schedule", i)
		}
		seen[a[i]] = true
	}
	if same {
		t.Fatal("seeds 1 and 2 gave the same schedule")
	}
}

func TestSpecNamesEveryWorkload(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		t.Fatal("spec names no metrics")
	}
	var raw struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	data, _ := os.ReadFile("../BENCHMARK.json")
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw.Workloads) != len(workloads) {
		t.Fatalf("spec has %d workloads, the benchmark %d", len(raw.Workloads), len(workloads))
	}
	for i, w := range raw.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: spec %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestEditStreamShortRun drives the two concurrent clients, the shared
// tracer and the in-process server end to end; run it under -race.
func TestEditStreamShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server and analyzes gen-default programs")
	}
	rc := runConfig{workload: "edit-stream", seed: 1, seconds: time.Second, traced: true,
		workers: 2, traceDir: t.TempDir()}
	rep, err := runEditStream(rc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.attempted == 0 || rep.failed != 0 {
		t.Fatalf("attempted %d, failed %d: %v", rep.attempted, rep.failed, rep.failures)
	}
	for _, name := range []string{"server.funcstore_hit_ratio", "server.phase_vrp_ms", "parser.self_ms", "vrp.engine_steps"} {
		if rep.values[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, rep.values[name])
		}
	}
	// Warm requests splice almost every function, and a spliced function
	// is not an engine run.
	if runs, spliced := rep.values["vrp.engine_runs"], rep.values["vrp.spliced"]; runs >= spliced {
		t.Errorf("vrp.engine_runs %v per analysis, not below vrp.spliced %v", runs, spliced)
	}
}
