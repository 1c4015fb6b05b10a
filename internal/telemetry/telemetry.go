// Package telemetry is the instrumentation layer of the analysis
// pipeline: per-function and per-pass counters aggregated into a
// deterministic Snapshot (Recorder), and the request-scoped span tree
// that is the one timeline of a run (Trace, exportable as Chrome
// trace_event JSON).
//
// Two properties shape the design:
//
//   - Disabled telemetry costs zero allocations on the engine hot path.
//     The engine holds a *RunMetrics that is nil when telemetry is off;
//     every recording method nil-checks its receiver and the methods are
//     small enough to inline, so the disabled path compiles down to a
//     compare-and-skip (TestDisabledRunMetricsZeroAlloc pins this).
//   - Enabled telemetry is bit-identical run to run. Counters are
//     written into per-function slots (the same layout the driver uses
//     for results and diagnostics) and flattened in function index
//     order. The nondeterministic data are the wall-clock fields;
//     Snapshot.Canon zeroes them so tests can compare everything else
//     with reflect.DeepEqual.
//
// The package deliberately depends on the standard library only: the
// driver translates IR-level observations (range widths, diagnostics)
// into plain labels before they arrive here.
package telemetry

import (
	"fmt"
	"strings"
	"time"
)

// RunMetrics counts the work of one engine run. The engine increments it
// through the nil-guarded methods below; the driver folds completed runs
// into the function's FuncMetrics slot. A nil *RunMetrics is the disabled
// state and every method is a no-op on it.
type RunMetrics struct {
	Steps      int64 // worklist items processed
	FlowPushes int64 // CFG-edge worklist insertions
	SSAPushes  int64 // SSA-edge worklist insertions
	FlowPeak   int64 // peak CFG worklist depth
	SSAPeak    int64 // peak SSA worklist depth
	PhiMerges  int64 // weighted φ-merges evaluated
	Widens     int64 // range-set widenings (MaxEvals ⊥-widens + set-cap merges)
	DeriveHits int64 // loop φs matched by a derivation template
	DeriveMiss int64 // derivation attempts that fell back to brute force
	Asserts    int64 // assertion (π-node) refinements applied

	// Precision-flow counters for the quality ledger: φ-merges whose
	// result hull was strictly coarser than every informative input, and
	// π-refinements that strictly narrowed their parent value.
	PhiHulls       int64
	AssertTightens int64
}

// PushFlow records a CFG worklist insertion at the given queue depth.
func (m *RunMetrics) PushFlow(depth int) {
	if m == nil {
		return
	}
	m.FlowPushes++
	if int64(depth) > m.FlowPeak {
		m.FlowPeak = int64(depth)
	}
}

// PushSSA records an SSA worklist insertion at the given queue depth.
func (m *RunMetrics) PushSSA(depth int) {
	if m == nil {
		return
	}
	m.SSAPushes++
	if int64(depth) > m.SSAPeak {
		m.SSAPeak = int64(depth)
	}
}

// PhiMerge records one weighted φ-merge evaluation.
func (m *RunMetrics) PhiMerge() {
	if m != nil {
		m.PhiMerges++
	}
}

// Widen records one range-set widening.
func (m *RunMetrics) Widen() {
	if m != nil {
		m.Widens++
	}
}

// AddWidens folds externally counted widenings (the range calculator's
// set-cap merges) into the run.
func (m *RunMetrics) AddWidens(n int64) {
	if m != nil {
		m.Widens += n
	}
}

// Assert records one assertion (π-node) refinement application.
func (m *RunMetrics) Assert() {
	if m != nil {
		m.Asserts++
	}
}

// PhiHull records one φ-merge that coarsened its inputs' hulls — a
// precision-loss event in the quality ledger.
func (m *RunMetrics) PhiHull() {
	if m != nil {
		m.PhiHulls++
	}
}

// AssertTighten records one π-refinement that strictly narrowed its
// parent — the quality ledger's precision-gain entry.
func (m *RunMetrics) AssertTighten() {
	if m != nil {
		m.AssertTightens++
	}
}

// FuncMetrics aggregates every run of one function across all passes.
// Counter fields add; peak fields take the maximum over runs.
type FuncMetrics struct {
	Func     string // function name
	Runs     int64  // engine runs (including degraded ones)
	Skips    int64  // cache-skip hits (bit-identical inputs, run elided)
	Degraded int64  // runs replaced by the ⊥/heuristic fallback
	RunMetrics

	// Always zero: the range calculator no longer interns or memoizes.
	// perfbench (the repository's end-to-end benchmark) is their only
	// reader, together with Snapshot.InternLive; they go with its next
	// change.
	InternHits    int64 `json:"-"`
	InternMiss    int64 `json:"-"`
	MemoHits      int64 `json:"-"`
	MemoMisses    int64 `json:"-"`
	MergeMemoHits int64 `json:"-"`
	MergeMemoMiss int64 `json:"-"`
}

// fold accumulates one run into the aggregate.
func (f *FuncMetrics) fold(m *RunMetrics) {
	f.Runs++
	f.Steps += m.Steps
	f.FlowPushes += m.FlowPushes
	f.SSAPushes += m.SSAPushes
	if m.FlowPeak > f.FlowPeak {
		f.FlowPeak = m.FlowPeak
	}
	if m.SSAPeak > f.SSAPeak {
		f.SSAPeak = m.SSAPeak
	}
	f.PhiMerges += m.PhiMerges
	f.Widens += m.Widens
	f.DeriveHits += m.DeriveHits
	f.DeriveMiss += m.DeriveMiss
	f.Asserts += m.Asserts
	f.PhiHulls += m.PhiHulls
	f.AssertTightens += m.AssertTightens
}

// addTotals accumulates another aggregate (for the snapshot's Totals row).
func (f *FuncMetrics) addTotals(o *FuncMetrics) {
	f.Runs += o.Runs
	f.Skips += o.Skips
	f.Degraded += o.Degraded
	f.Steps += o.Steps
	f.FlowPushes += o.FlowPushes
	f.SSAPushes += o.SSAPushes
	if o.FlowPeak > f.FlowPeak {
		f.FlowPeak = o.FlowPeak
	}
	if o.SSAPeak > f.SSAPeak {
		f.SSAPeak = o.SSAPeak
	}
	f.PhiMerges += o.PhiMerges
	f.Widens += o.Widens
	f.DeriveHits += o.DeriveHits
	f.DeriveMiss += o.DeriveMiss
	f.Asserts += o.Asserts
	f.PhiHulls += o.PhiHulls
	f.AssertTightens += o.AssertTightens
}

// Histogram is a labelled counter vector. Labels are fixed at creation;
// Add is bounds-clamped into the last bucket so callers can use open-ended
// top buckets ("8+").
type Histogram struct {
	Name   string   `json:"name"`
	Labels []string `json:"labels"`
	Counts []int64  `json:"counts"`
}

// NewHistogram creates an empty histogram over the given bucket labels.
func NewHistogram(name string, labels ...string) *Histogram {
	return &Histogram{Name: name, Labels: labels, Counts: make([]int64, len(labels))}
}

// Add increments bucket i, clamping into the final bucket.
func (h *Histogram) Add(i int) {
	if len(h.Counts) == 0 {
		return
	}
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

// Total returns the number of observations.
func (h *Histogram) Total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

func (h *Histogram) String() string {
	var b strings.Builder
	b.WriteString(h.Name)
	b.WriteString(":")
	for i, l := range h.Labels {
		if h.Counts[i] == 0 {
			continue
		}
		fmt.Fprintf(&b, " %s=%d", l, h.Counts[i])
	}
	return b.String()
}

// Recorder collects one analysis run's telemetry. A nil *Recorder is the
// disabled state: the driver never calls into it and hands the engine a
// nil *RunMetrics. A Recorder must not be shared between concurrent
// analysis runs; Begin resets it.
type Recorder struct {
	start  time.Time
	funcs  []FuncMetrics
	passNs []int64 // wall time per pass
}

// New returns an empty enabled Recorder.
func New() *Recorder { return &Recorder{} }

// Begin (re)initializes the recorder for a run over the named functions,
// indexed by call-graph function index.
func (r *Recorder) Begin(funcNames []string) {
	r.start = time.Now()
	r.funcs = make([]FuncMetrics, len(funcNames))
	for i, n := range funcNames {
		r.funcs[i].Func = n
	}
	r.passNs = r.passNs[:0]
}

// Now returns nanoseconds since Begin.
func (r *Recorder) Now() int64 { return int64(time.Since(r.start)) }

// StartRun returns a fresh RunMetrics for one engine run of function fi.
func (r *Recorder) StartRun() *RunMetrics { return &RunMetrics{} }

// EndRun folds a completed engine run into the function's slot. outcome
// is "ok", "degraded:panic", "degraded:step-budget" or "cancelled".
func (r *Recorder) EndRun(fi int, m *RunMetrics, outcome string) {
	r.funcs[fi].fold(m)
	if strings.HasPrefix(outcome, "degraded") {
		r.funcs[fi].Degraded++
	}
}

// Skip records a cache-skip hit: the function's interprocedural inputs
// were bit-identical to its previous run, so the engine was not re-run.
func (r *Recorder) Skip(fi int) { r.funcs[fi].Skips++ }

// EndPass records one fixpoint pass's wall time.
func (r *Recorder) EndPass(startNs int64) {
	r.passNs = append(r.passNs, r.Now()-startNs)
}

// Snapshot is the aggregated result of a run. All fields except the
// wall-clock ones (WallNs, PassWallNs) are deterministic: identical run
// to run.
type Snapshot struct {
	// Funcs holds per-function aggregates in call-graph index order.
	Funcs []FuncMetrics `json:"funcs"`
	// Totals sums Funcs (peaks: maxima). Totals.Func is "".
	Totals FuncMetrics `json:"totals"`

	// Passes is the number of fixpoint passes executed; PassWallNs the
	// wall time of each (nondeterministic).
	Passes     int     `json:"passes"`
	PassWallNs []int64 `json:"pass_wall_ns"`
	WallNs     int64   `json:"wall_ns"`

	// BoundaryDrops counts symbolic values collapsed to ⊥ while crossing
	// a function boundary (interprocedural sanitization) — lattice
	// precision lost to the single-ancestor representation.
	BoundaryDrops int64 `json:"boundary_drops"`

	// InternLive is always zero, like FuncMetrics.InternHits and its
	// siblings, and read only by perfbench.
	InternLive int64 `json:"-"`

	// RangeSetSize buckets every final register value by lattice level
	// and range-set cardinality; RangeSpan buckets Set values by their
	// widest numeric range; PassRuns buckets functions by how many passes
	// actually re-ran their engine (the pass-count histogram).
	RangeSetSize *Histogram `json:"range_set_size,omitempty"`
	RangeSpan    *Histogram `json:"range_span,omitempty"`
	PassRuns     *Histogram `json:"pass_runs,omitempty"`

	// Quality is the prediction-quality digest (cell classes and widths,
	// the precision-loss ledger, per-branch evidence attribution and
	// per-function scores), built by the driver from the final results.
	// Fully deterministic — Canon clones it unchanged.
	Quality *Quality `json:"quality,omitempty"`
}

// Snapshot flattens the recorder into its deterministic aggregate. The
// driver fills the histogram and BoundaryDrops fields afterwards (they
// need IR-level context this package does not depend on).
func (r *Recorder) Snapshot() *Snapshot {
	s := &Snapshot{
		Funcs:      make([]FuncMetrics, len(r.funcs)),
		Passes:     len(r.passNs),
		PassWallNs: append([]int64(nil), r.passNs...),
		WallNs:     r.Now(),
	}
	copy(s.Funcs, r.funcs)
	for i := range s.Funcs {
		s.Totals.addTotals(&s.Funcs[i])
	}
	return s
}

// Canon returns a deep copy with the wall-clock fields zeroed, leaving
// exactly the data that must be bit-identical run to run.
func (s *Snapshot) Canon() *Snapshot {
	c := *s
	c.Funcs = append([]FuncMetrics(nil), s.Funcs...)
	c.WallNs = 0
	c.PassWallNs = make([]int64, len(s.PassWallNs))
	c.RangeSetSize = s.RangeSetSize.clone()
	c.RangeSpan = s.RangeSpan.clone()
	c.PassRuns = s.PassRuns.clone()
	c.Quality = s.Quality.clone()
	return &c
}

func (h *Histogram) clone() *Histogram {
	if h == nil {
		return nil
	}
	return &Histogram{
		Name:   h.Name,
		Labels: append([]string(nil), h.Labels...),
		Counts: append([]int64(nil), h.Counts...),
	}
}

// Summary renders a compact human-readable digest of the snapshot.
func (s *Snapshot) Summary() string {
	var b strings.Builder
	t := &s.Totals
	fmt.Fprintf(&b, "telemetry: %d funcs, %d passes, wall %s\n",
		len(s.Funcs), s.Passes, time.Duration(s.WallNs))
	fmt.Fprintf(&b, "  engine: steps=%d flow-pushes=%d (peak %d) ssa-pushes=%d (peak %d)\n",
		t.Steps, t.FlowPushes, t.FlowPeak, t.SSAPushes, t.SSAPeak)
	fmt.Fprintf(&b, "  lattice: phi-merges=%d widens=%d asserts=%d derive-hits=%d derive-misses=%d boundary-drops=%d\n",
		t.PhiMerges, t.Widens, t.Asserts, t.DeriveHits, t.DeriveMiss, s.BoundaryDrops)
	fmt.Fprintf(&b, "  driver: runs=%d skips=%d degraded=%d\n", t.Runs, t.Skips, t.Degraded)
	for _, h := range []*Histogram{s.RangeSetSize, s.RangeSpan, s.PassRuns} {
		if h != nil && h.Total() > 0 {
			fmt.Fprintf(&b, "  %s\n", h.String())
		}
	}
	return b.String()
}
