// Command perfbench is the repository's benchmark. It runs one workload
// against the public vrp facade, the internal layer entry points and
// vrpd's HTTP handler, checks every output against an independent
// oracle, and prints one JSON result as the last line of standard output.
//
//	perfbench --workload corpus-predict|gen-100k|edit-stream|all \
//	          --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with no tracing; --trace 1
// is a separate run that records a span around every layer call and
// reports per-layer metrics plus the tracing overhead. README.md lists
// every metric and the layer that should move it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"vrp/internal/freq"
	"vrp/internal/telemetry"
)

// spec is the part of BENCHMARK.json that names the metrics: the
// untraced run reports every end_to_end metric, the traced run every
// per_layer one, each with the unit given there.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (spec, error) {
	var sp spec
	data, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

var workloads = []struct {
	name string
	run  func(runConfig) (*report, error)
}{
	{"corpus-predict", runCorpusPredict},
	{"gen-100k", runGen100k},
	{"edit-stream", runEditStream},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	workers  int // CPUs available: the engine worker and client budget
	traceDir string
}

// tracer returns a fresh span recorder for traced runs, nil otherwise.
func (rc runConfig) tracer() *tracer {
	if !rc.traced {
		return nil
	}
	return newTracer()
}

// writeTrace writes the run's spans out once the run has ended.
func writeTrace(rc runConfig, tr *tracer) error {
	return writeChrome(filepath.Join(rc.traceDir, "trace-"+rc.workload+".json"), tr.snapshot())
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one workload run's results.
type report struct {
	attempted, failed int
	failures          []string // the first few failure messages
	values            map[string]float64
	notes             []string // extra human-readable lines
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation or output check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// setLatency reports the median and p90 of per-operation latencies in ms.
func (r *report) setLatency(lat []float64) {
	r.set("latency_p50_ms", median(lat))
	r.set("latency_p90_ms", quantile(lat, 0.9))
	r.note("latency over %d operations (%d beyond p90)", len(lat), len(lat)/10)
}

// setRuntime reports Go runtime counters over untraced operations.
func (r *report) setRuntime(d runtimeCounters, ops, instrs int) {
	if ops > 0 && instrs > 0 {
		r.set("runtime.allocs_per_instr", float64(d.allocs)/float64(instrs))
		r.set("runtime.gc_cycles", float64(d.gcs)/float64(ops))
	}
}

// setOverhead reports how much slower traced operations ran than the
// same layer calls untraced, interleaved with them in the same run.
func (r *report) setOverhead(traced, plain float64) {
	if plain > 0 {
		r.set("trace.overhead_pct", 100*(traced-plain)/plain)
	}
	r.note("tracing overhead: traced %.4g vs untraced %.4g (same run)", traced, plain)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// layerTotals sums per-operation counters of traced layer-by-layer runs.
type layerTotals struct {
	irgenInstrs, ssaInstrs, sccs                    int64
	passes, runs, skipped, spliced                  int64
	exprEvals, phiEvals, subOps                     int64
	converged, stale, degraded, derived, failedDerv int64
	factorizations, solves                          int64
}

// addOutcome folds in one traced operation; fr0 and fs0 are the
// freq.Stats values read just before it started.
func (l *layerTotals) addOutcome(o *outcome, fr0, fs0 int64) {
	fr1, fs1 := freq.Stats()
	l.factorizations += fr1 - fr0
	l.solves += fs1 - fs0
	l.irgenInstrs += int64(o.irgenInstrs)
	l.ssaInstrs += int64(o.ssaInstrs)
	l.sccs += int64(o.sccs)
	st := o.res.Stats
	l.passes += int64(st.Passes)
	l.runs += st.FuncsAnalyzed
	l.skipped += st.FuncsSkipped
	l.spliced += st.FuncsSpliced
	l.exprEvals += st.ExprEvals
	l.phiEvals += st.PhiEvals
	l.subOps += st.SubOps
	if st.Converged {
		l.converged++
	}
	l.stale += st.StaleCertain
	l.degraded += st.FuncsDegraded
	l.derived += st.DerivedLoops
	l.failedDerv += st.FailedDerives
}

// setMetrics reports per-operation layer metrics over ops traced
// operations, with self times taken from spans. Interpreter time is
// reported per oracle build (oracleBuilds of them in the run).
func (l *layerTotals) setMetrics(rep *report, spans []span, ops, oracleBuilds int) {
	self := selfTimes(spans)
	n := float64(max(ops, 1))
	for _, layer := range []string{"parser", "sem", "irgen", "ssaform", "callgraph", "heuristics", "vrp", "freq"} {
		rep.set(layer+".self_ms", ms(self[layer])/n)
	}
	rep.set("interp.self_ms", ms(self["interp"])/float64(max(oracleBuilds, 1)))
	perOp := func(name string, v int64) { rep.set(name, float64(v)/n) }
	perOp("irgen.instrs", l.irgenInstrs)
	perOp("ssaform.instrs", l.ssaInstrs)
	perOp("callgraph.sccs", l.sccs)
	perOp("vrp.passes", l.passes)
	perOp("vrp.engine_runs", l.runs)
	perOp("vrp.skipped", l.skipped)
	perOp("vrp.spliced", l.spliced)
	perOp("vrp.expr_evals", l.exprEvals)
	perOp("vrp.phi_evals", l.phiEvals)
	perOp("vrp.sub_ops", l.subOps)
	perOp("vrp.converged", l.converged)
	perOp("vrp.stale_certain", l.stale)
	perOp("vrp.degraded", l.degraded)
	perOp("freq.factorizations", l.factorizations)
	perOp("freq.solves", l.solves)
	rep.set("vrp.skip_ratio", ratio(l.skipped, l.runs))
	rep.set("vrp.derive_hit_ratio", ratio(l.derived, l.failedDerv))
}

// ratio is hits / (hits + misses), 0 when there were neither.
func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// telemetryTotals sums the range-lattice counters and engine steps of
// telemetry snapshots.
type telemetryTotals struct {
	internHits, internMiss, memoHits, memoMiss, mergeHits, mergeMiss int64
	live, widens, phiMerges, steps                                   int64
}

func (t *telemetryTotals) add(s *telemetry.Snapshot) {
	tot := s.Totals
	t.internHits += tot.InternHits
	t.internMiss += tot.InternMiss
	t.memoHits += tot.MemoHits
	t.memoMiss += tot.MemoMisses
	t.mergeHits += tot.MergeMemoHits
	t.mergeMiss += tot.MergeMemoMiss
	t.live += s.InternLive
	t.widens += tot.Widens
	t.phiMerges += tot.PhiMerges
	t.steps += tot.Steps
}

// setMetrics reports the vrange layer and engine steps over n telemetry
// analyses.
func (t *telemetryTotals) setMetrics(rep *report, n int) {
	rep.set("vrange.intern_hit_ratio", ratio(t.internHits, t.internMiss))
	rep.set("vrange.memo_hit_ratio", ratio(t.memoHits, t.memoMiss))
	rep.set("vrange.merge_memo_hit_ratio", ratio(t.mergeHits, t.mergeMiss))
	rep.set("vrange.intern_live", float64(t.live)/float64(n))
	rep.set("vrange.widens", float64(t.widens)/float64(n))
	rep.set("vrange.phi_merges", float64(t.phiMerges)/float64(n))
	rep.set("vrp.engine_steps", float64(t.steps)/float64(n))
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// toResult selects the metrics of this kind of run. A missing end-to-end
// metric is a bug in the workload; a missing per-layer metric means the
// layer does not run on it and reads 0.
func (r *report) toResult(sp spec, traced bool, prefix string) (result, error) {
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	list := sp.EndToEnd
	if traced {
		list = sp.PerLayer
	}
	for _, m := range list {
		v, ok := r.values[m.Name]
		if !ok && !traced {
			return res, fmt.Errorf("workload reported no %s", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("%s is not a number: %v", m.Name, v)
		}
		res.Metrics[prefix+m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return res, nil
}

// printHuman writes the readable table that precedes the JSON line.
func printHuman(name string, traced bool, r *report, res result) {
	fmt.Printf("workload %s (trace %v): attempted %d, failed %d, error_rate %.6f\n",
		name, traced, r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "corpus-predict, gen-100k, edit-stream, or all")
		seed     = flag.Uint64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", 10, "measuring time of one run")
		traceArg = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		traceDir = flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "where traced runs write their spans")
	)
	flag.Parse()
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatalf("%v", err)
	}
	if *traceArg != 0 && *traceArg != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	rc := runConfig{
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *traceArg == 1,
		workers:  runtime.GOMAXPROCS(0),
		traceDir: *traceDir,
	}

	total := result{Correct: true, Metrics: map[string]metric{}}
	ran := false
	for _, w := range workloads {
		if *workload != w.name && *workload != "all" {
			continue
		}
		ran = true
		rc.workload = w.name
		rep, err := w.run(rc)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		prefix := ""
		if *workload == "all" {
			prefix = w.name + "/"
		}
		res, err := rep.toResult(sp, rc.traced, prefix)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		printHuman(w.name, rc.traced, rep, res)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[k] = v
		}
	}
	if !ran {
		fatalf("unknown workload %q", *workload)
	}
	line, err := json.Marshal(total)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
