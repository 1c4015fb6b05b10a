package server

import (
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"vrp/internal/metrics"
	"vrp/internal/telemetry"
)

// serverMetrics bundles every instrument vrpd exposes at /metrics. Names
// follow the Prometheus conventions: `_total` counters, base-unit
// histograms, ratio gauges computed at scrape time.
//
// The lattice group mirrors the telemetry.RunMetrics aggregates of every
// completed analysis, so one scrape shows the lattice-level health of
// live traffic — a regression that makes the engine widen more or stop
// converging shows up on a dashboard before it shows up
// in latency.
type serverMetrics struct {
	reg *metrics.Registry

	// HTTP surface.
	requests *metrics.CounterVec // vrpd_http_requests_total{path,code}
	inflight *metrics.Gauge      // vrpd_inflight_requests
	shed     *metrics.Counter    // vrpd_requests_shed_total
	latency  *metrics.Histogram  // vrpd_analyze_duration_seconds
	srcBytes *metrics.Histogram  // vrpd_analyze_source_bytes

	// Analysis outcomes.
	analyses     *metrics.CounterVec // vrpd_analyses_total{outcome}
	converged    *metrics.Counter    // vrpd_analyses_converged_total
	notConverged *metrics.Counter    // vrpd_analyses_not_converged_total
	passes       *metrics.Histogram  // vrpd_analysis_passes

	// Batch surface.
	batchLatency *metrics.Histogram // vrpd_batch_duration_seconds
	batchSize    *metrics.Histogram // vrpd_batch_programs

	// Result cache.
	cacheHits       *metrics.Counter // vrpd_cache_hits_total
	cacheMisses     *metrics.Counter // vrpd_cache_misses_total
	cacheBypass     *metrics.Counter // vrpd_cache_bypass_total
	cacheEvictions  *metrics.Counter // vrpd_cache_evictions_total
	cacheCollisions *metrics.Counter // vrpd_cache_collisions_total

	// Per-function result store.
	funcstoreHits       *metrics.Counter // vrpd_funcstore_hits_total
	funcstoreMisses     *metrics.Counter // vrpd_funcstore_misses_total
	funcstoreCollisions *metrics.Counter // vrpd_funcstore_collisions_total
	funcstoreEvictions  *metrics.Counter // vrpd_funcstore_evictions_total

	// Lattice-level telemetry, folded from each run's Snapshot totals.
	latSteps      *metrics.Counter // vrpd_lattice_steps_total
	latPhiMerges  *metrics.Counter // vrpd_lattice_phi_merges_total
	latWidens     *metrics.Counter // vrpd_lattice_widens_total
	latAsserts    *metrics.Counter // vrpd_lattice_asserts_total
	latDeriveHit  *metrics.Counter // vrpd_lattice_derive_hits_total
	latDeriveMiss *metrics.Counter // vrpd_lattice_derive_misses_total
	latBoundary   *metrics.Counter // vrpd_lattice_boundary_drops_total
	funcsRun      *metrics.Counter // vrpd_lattice_funcs_analyzed_total
	funcsSkipped  *metrics.Counter // vrpd_lattice_funcs_skipped_total
	funcsDegraded *metrics.Counter // vrpd_lattice_funcs_degraded_total

	// Per-phase latency, derived from each request's span tree — the
	// histograms and /debug/vrpd/trace/{id} are two views of the same
	// measurements, so they can never disagree. Children are cached
	// because the phase set is fixed at startup.
	phaseDur map[string]*metrics.Histogram // vrpd_phase_duration_seconds{phase}

	// SLO burn: sliding-window fractions of requests over the latency
	// target, plus the lifetime over-target counter.
	slo     *sloWindow
	sloOver *metrics.Counter    // vrpd_slo_over_target_total
	kept    *metrics.CounterVec // vrpd_recorder_kept_total{class}

	// Prediction quality, folded from each run's Quality digest: branch
	// and certainty counters, the precision-loss ledger by cause,
	// confidence-bucket and evidence attribution, and the last analysis's
	// mean log₂ hull width (a state, so a gauge).
	qBranches   *metrics.Counter    // vrpd_quality_branches_total
	qCertain    *metrics.Counter    // vrpd_quality_certain_total
	qStale      *metrics.Counter    // vrpd_quality_stale_certain_total
	qLoss       *metrics.CounterVec // vrpd_quality_loss_total{cause}
	qConfidence *metrics.CounterVec // vrpd_quality_confidence_total{bucket}
	qEvidence   *metrics.CounterVec // vrpd_quality_evidence_total{predictor}
	qMeanWidth  *metrics.Gauge      // vrpd_quality_mean_log2_width
}

// phaseNames is the fixed request-phase vocabulary: the direct children
// the handler hangs off the root span. The driver's own sub-spans
// (callgraph, passes, engine runs, splices) nest under "vrp".
var phaseNames = []string{"validate", "cache_probe", "parse", "ssa", "vrp", "render", "write"}

// sloWindow tracks request latencies against a target in a ring of
// per-second buckets, so burn gauges can report the fraction of requests
// over target in the trailing 1m/5m windows. Observe is called once per
// /v1/analyze request (sheds included: overload latency is exactly when
// the SLO matters), so a plain mutex is cheap enough.
type sloWindow struct {
	target float64 // seconds; <=0 disables
	now    func() time.Time

	mu    sync.Mutex
	stamp [sloRingSeconds]int64 // unix second owning the bucket
	total [sloRingSeconds]int64
	over  [sloRingSeconds]int64
}

const sloRingSeconds = 300 // the widest window served (5m)

func newSLOWindow(target float64) *sloWindow {
	return &sloWindow{target: target, now: time.Now}
}

// observe records one request latency in seconds; reports whether it
// blew the target.
func (w *sloWindow) observe(sec float64) bool {
	if w == nil {
		return false
	}
	now := w.now().Unix()
	i := int(now % sloRingSeconds)
	w.mu.Lock()
	if w.stamp[i] != now {
		w.stamp[i] = now
		w.total[i] = 0
		w.over[i] = 0
	}
	w.total[i]++
	blown := w.target > 0 && sec > w.target
	if blown {
		w.over[i]++
	}
	w.mu.Unlock()
	return blown
}

// burn returns the fraction of requests over target in the trailing
// window (seconds, capped at the ring size); 0 with no traffic.
func (w *sloWindow) burn(window int64) float64 {
	if w == nil {
		return 0
	}
	if window > sloRingSeconds {
		window = sloRingSeconds
	}
	now := w.now().Unix()
	var total, over int64
	w.mu.Lock()
	for i := 0; i < sloRingSeconds; i++ {
		if w.stamp[i] > now-window {
			total += w.total[i]
			over += w.over[i]
		}
	}
	w.mu.Unlock()
	if total == 0 {
		return 0
	}
	return float64(over) / float64(total)
}

// latencyBuckets spans sub-millisecond cache hits to multi-second
// pathological analyses.
var latencyBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}

// sourceBuckets buckets submitted program sizes in bytes.
var sourceBuckets = []float64{256, 1024, 4096, 16384, 65536, 262144, 1048576}

func newServerMetrics(start time.Time, sloTarget float64) *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{
		reg:      reg,
		requests: reg.CounterVec("vrpd_http_requests_total", "HTTP requests by path and status code.", "path", "code"),
		inflight: reg.Gauge("vrpd_inflight_requests", "Analyze requests currently being served."),
		shed:     reg.Counter("vrpd_requests_shed_total", "Analyze requests rejected with 429 because the in-flight bound was reached."),
		latency:  reg.Histogram("vrpd_analyze_duration_seconds", "Wall time of every /v1/analyze request: analyses, cache hits, errors, and 429 load sheds alike (batch requests land in vrpd_batch_duration_seconds instead).", latencyBuckets),
		srcBytes: reg.Histogram("vrpd_analyze_source_bytes", "Size of submitted Mini sources in bytes.", sourceBuckets),

		analyses:     reg.CounterVec("vrpd_analyses_total", "Completed analyze requests by outcome.", "outcome"),
		converged:    reg.Counter("vrpd_analyses_converged_total", "Analyses whose interprocedural fixpoint converged."),
		notConverged: reg.Counter("vrpd_analyses_not_converged_total", "Analyses that exhausted MaxPasses (optimistic values demoted)."),
		passes:       reg.Histogram("vrpd_analysis_passes", "Interprocedural fixpoint passes per analysis.", []float64{1, 2, 3, 4, 6, 8}),

		batchLatency: reg.Histogram("vrpd_batch_duration_seconds", "Wall time of every /v1/analyze-batch request, 429 load sheds included.", latencyBuckets),
		batchSize:    reg.Histogram("vrpd_batch_programs", "Programs per accepted /v1/analyze-batch request.", []float64{1, 2, 4, 8, 16, 32, 64}),

		cacheHits:       reg.Counter("vrpd_cache_hits_total", "Analyze requests served from the fingerprint-keyed result cache."),
		cacheMisses:     reg.Counter("vrpd_cache_misses_total", "Cacheable analyze requests that had to run the analysis."),
		cacheBypass:     reg.Counter("vrpd_cache_bypass_total", "Analyze requests that bypassed the cache (explain/telemetry queries)."),
		cacheEvictions:  reg.Counter("vrpd_cache_evictions_total", "Result-cache entries evicted by the LRU bound."),
		cacheCollisions: reg.Counter("vrpd_cache_collisions_total", "Result-cache fingerprint matches whose stored source failed the equality confirm (served as misses, never as another program's body)."),

		funcstoreHits:       reg.Counter("vrpd_funcstore_hits_total", "Function results spliced from the per-function store after full-key confirmation."),
		funcstoreMisses:     reg.Counter("vrpd_funcstore_misses_total", "Per-function store lookups that required an engine run."),
		funcstoreCollisions: reg.Counter("vrpd_funcstore_collisions_total", "Per-function store fingerprint matches whose stored key failed confirmation (counted as misses; colliding entries coexist, they are never unified)."),
		funcstoreEvictions:  reg.Counter("vrpd_funcstore_evictions_total", "Per-function store entries evicted by the LRU bound."),

		latSteps:      reg.Counter("vrpd_lattice_steps_total", "Engine worklist steps across all analyses."),
		latPhiMerges:  reg.Counter("vrpd_lattice_phi_merges_total", "Weighted phi-merges evaluated across all analyses."),
		latWidens:     reg.Counter("vrpd_lattice_widens_total", "Range-set widenings across all analyses."),
		latAsserts:    reg.Counter("vrpd_lattice_asserts_total", "Assertion (pi-node) refinements applied across all analyses."),
		latDeriveHit:  reg.Counter("vrpd_lattice_derive_hits_total", "Loop phis matched by a derivation template."),
		latDeriveMiss: reg.Counter("vrpd_lattice_derive_misses_total", "Derivation attempts that fell back to brute force."),
		latBoundary:   reg.Counter("vrpd_lattice_boundary_drops_total", "Symbolic values collapsed to bottom crossing a function boundary."),
		funcsRun:      reg.Counter("vrpd_lattice_funcs_analyzed_total", "Per-function engine runs across all analyses."),
		funcsSkipped:  reg.Counter("vrpd_lattice_funcs_skipped_total", "Engine runs elided by the driver's dirty-set skip."),
		funcsDegraded: reg.Counter("vrpd_lattice_funcs_degraded_total", "Engine runs degraded to the bottom/heuristic fallback."),
	}

	// Per-phase latency histograms share the request-latency buckets; the
	// children are created eagerly so a scrape shows every phase from the
	// first exposition (and so the hot path never takes the family lock).
	phaseVec := reg.HistogramVec("vrpd_phase_duration_seconds",
		"Wall time of each request phase, derived from the same spans /debug/vrpd/trace serves.",
		latencyBuckets, "phase")
	m.phaseDur = make(map[string]*metrics.Histogram, len(phaseNames))
	for _, p := range phaseNames {
		m.phaseDur[p] = phaseVec.With(p)
	}

	// SLO burn gauges: the target is a constant gauge (dashboards divide
	// by it), the burns are scrape-time reads of the sliding window, and
	// the over-target counter is the lifetime total behind them.
	m.slo = newSLOWindow(sloTarget)
	m.sloOver = reg.Counter("vrpd_slo_over_target_total",
		"Requests whose wall time exceeded the -slo-latency target.")
	reg.Gauge("vrpd_slo_target_seconds", "The -slo-latency target (0 = SLO tracking disabled).").Set(sloTarget)
	reg.GaugeFunc("vrpd_slo_burn_1m", "Fraction of requests over the SLO latency target in the trailing minute.",
		func() float64 { return m.slo.burn(60) })
	reg.GaugeFunc("vrpd_slo_burn_5m", "Fraction of requests over the SLO latency target in the trailing five minutes.",
		func() float64 { return m.slo.burn(300) })

	// Flight-recorder retention traffic by class.
	m.kept = reg.CounterVec("vrpd_recorder_kept_total",
		"Requests retained by the flight recorder, by retention class (interesting/slow/sample).", "class")

	// Prediction-quality surface (analyses run with telemetry, which is
	// every fresh analysis vrpd performs).
	m.qBranches = reg.Counter("vrpd_quality_branches_total",
		"Conditional branch predictions emitted across all analyses.")
	m.qCertain = reg.Counter("vrpd_quality_certain_total",
		"Range-derived certain (P in {0,1}) predictions across all analyses.")
	m.qStale = reg.Counter("vrpd_quality_stale_certain_total",
		"Range-certain predictions invalidated by non-convergence demotion and re-derived from heuristics.")
	m.qLoss = reg.CounterVec("vrpd_quality_loss_total",
		"Precision-loss ledger events by cause (widen, recursion-pin, demotion, phi-hull; assert-tighten counts precision gained).", "cause")
	m.qConfidence = reg.CounterVec("vrpd_quality_confidence_total",
		"Branch predictions by confidence bucket (max(p, 1-p)).", "bucket")
	m.qEvidence = reg.CounterVec("vrpd_quality_evidence_total",
		"Branch predictions by contributing predictor (range, default, each Ball-Larus heuristic, dempster-shafer, uniform).", "predictor")
	m.qMeanWidth = reg.Gauge("vrpd_quality_mean_log2_width",
		"Mean log2(hull width + 1) over measurable final cells of the last analysis.")
	reg.GaugeFunc("vrpd_quality_certain_ratio",
		"Fraction of emitted predictions that are range-certain, over all analyses.",
		func() float64 {
			b := m.qBranches.Value()
			if b == 0 {
				return 0
			}
			return float64(m.qCertain.Value()) / float64(b)
		})

	// Build identity as an info-style gauge: constant 1, payload in the
	// labels, the Prometheus convention for joining version metadata.
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	reg.GaugeVec("vrpd_build_info", "Build and runtime identity of this vrpd process (value is always 1).",
		"version", "goversion", "gomaxprocs").
		With(version, runtime.Version(), strconv.Itoa(runtime.GOMAXPROCS(0))).Set(1)

	// Scrape-time ratios, derived from the raw counters so they can never
	// drift from them.
	reg.GaugeFunc("vrpd_cache_hit_ratio", "Result-cache hit ratio over cacheable requests.",
		func() float64 { return ratio(m.cacheHits.Value(), m.cacheMisses.Value()) })
	reg.GaugeFunc("vrpd_funcstore_hit_ratio", "Per-function store hit ratio over all lookups.",
		func() float64 { return ratio(m.funcstoreHits.Value(), m.funcstoreMisses.Value()) })

	// Process-level health.
	reg.GaugeFunc("vrpd_goroutines", "Live goroutines.", func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("vrpd_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(start).Seconds() })

	return m
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// observeSnapshot folds one analysis run's telemetry totals into the
// lattice counters.
func (m *serverMetrics) observeSnapshot(s *telemetry.Snapshot) {
	if s == nil {
		return
	}
	t := &s.Totals
	m.latSteps.Add(t.Steps)
	m.latPhiMerges.Add(t.PhiMerges)
	m.latWidens.Add(t.Widens)
	m.latAsserts.Add(t.Asserts)
	m.latDeriveHit.Add(t.DeriveHits)
	m.latDeriveMiss.Add(t.DeriveMiss)
	m.latBoundary.Add(s.BoundaryDrops)
	m.funcsRun.Add(t.Runs)
	m.funcsSkipped.Add(t.Skips)
	m.funcsDegraded.Add(t.Degraded)
	m.passes.Observe(float64(s.Passes))

	if q := s.Quality; q != nil {
		m.qBranches.Add(q.Branches)
		m.qCertain.Add(q.Certain)
		m.qStale.Add(q.StaleCertain)
		for cause, n := range q.Loss {
			m.qLoss.With(cause).Add(n)
		}
		for i, label := range telemetry.QualityConfidenceLabels {
			if n := q.Confidence.Counts[i]; n > 0 {
				m.qConfidence.With(label).Add(n)
			}
		}
		for pred, n := range q.Evidence {
			m.qEvidence.With(pred).Add(n)
		}
		m.qMeanWidth.Set(q.MeanLog2Width)
	}
}
