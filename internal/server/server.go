// Package server implements vrpd: an HTTP analysis service over the vrp
// facade with observability as the headline feature.
//
// Endpoints:
//
//	POST /v1/analyze   Mini source in the body → branch predictions,
//	                   diagnostics and engine stats as JSON.
//	                   ?explain=func:line adds the provenance chain of
//	                   one branch; ?telemetry=1 attaches the run's full
//	                   telemetry snapshot. Both bypass the result cache.
//	POST /v1/analyze-batch
//	                   {"programs": ["src", ...]} → {"results": [{"status",
//	                   "body"}, ...]}, one entry per program in order; each
//	                   body is byte-identical to what /v1/analyze would
//	                   have returned. The batch holds one in-flight slot
//	                   and pipelines parse→SSA against VRP across items,
//	                   all sharing the warm caches.
//	GET  /metrics      Prometheus text exposition (internal/metrics).
//	GET  /healthz      liveness: 200 while the process runs.
//	GET  /readyz       readiness: 200 until Shutdown begins, then 503.
//	GET  /debug/vrpd/requests
//	                   flight-recorder index: the retained tail of recent
//	                   traffic (slowest, degraded, shed, sampled), newest
//	                   first; ?sort=slowest ranks by latency.
//	GET  /debug/vrpd/trace/{id}
//	                   one retained request's span tree as Chrome trace
//	                   JSON (opens in Perfetto / chrome://tracing).
//	     /debug/pprof  the standard net/http/pprof handlers.
//
// Operational behaviour:
//
//   - Every request gets an X-Request-Id and one structured log/slog
//     record with method, path, status, duration and — for analyses —
//     the outcome, cache disposition and convergence.
//   - At most Config.MaxInFlight analyses run concurrently; excess
//     requests are shed immediately with 429 (and counted) instead of
//     queueing without bound.
//   - Results are cached in a bounded LRU keyed by the vrange.HashBytes
//     fingerprint of the source; the stored source is compared on every
//     hit (fingerprint collisions are counted misses, never another
//     program's body), and a hit returns the exact bytes of the
//     populating response.
//   - A per-function result store (funcstore.go) persists every
//     successful engine run keyed by body × interprocedural-input ×
//     config fingerprints with full-key confirmation, so a request that
//     edits one function of a previously seen program re-analyzes only
//     the dirty cone — bit-identical to a cold analysis.
//   - Every analysis runs with telemetry enabled and its RunMetrics
//     aggregates are folded into the /metrics registry, so a scrape
//     shows lattice-level health (steps, φ-merges, widens, convergence)
//     of live traffic.
//   - Shutdown flips /readyz to 503 and drains in-flight requests.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"vrp"
	"vrp/internal/telemetry"
	"vrp/internal/vrange"
)

// Config controls a Server. The zero value is usable: it binds nothing
// (callers pass a listener), serves with the defaults below, and logs
// through slog.Default().
type Config struct {
	// MaxInFlight bounds concurrently served analyses; excess requests
	// are shed with 429. 0 means DefaultMaxInFlight.
	MaxInFlight int

	// MaxSourceBytes bounds the accepted request body. 0 means
	// DefaultMaxSourceBytes.
	MaxSourceBytes int64

	// CacheEntries bounds the result cache; negative disables caching,
	// 0 means DefaultCacheEntries.
	CacheEntries int

	// FuncStoreEntries bounds the cross-request per-function result
	// store; negative disables it, 0 means DefaultFuncStoreEntries.
	FuncStoreEntries int

	// AnalyzeTimeout cancels one analysis after this long (the request
	// fails with 503 and a cancelled outcome). 0 disables the timeout.
	AnalyzeTimeout time.Duration

	// Workers is ignored: the analysis runs one sequential schedule.
	// perfbench is its only setter.
	Workers int

	// SLOLatency is the per-request latency target behind the vrpd_slo_*
	// burn gauges: requests slower than this count as over-target. 0
	// means DefaultSLOLatency; negative disables SLO tracking (the burn
	// gauges stay at 0).
	SLOLatency time.Duration

	// RecorderEntries bounds the flight recorder's retained requests;
	// negative disables the recorder (its endpoints 404), 0 means
	// DefaultRecorderEntries.
	RecorderEntries int

	// RecorderSlowK is how many slowest-so-far requests the recorder
	// always keeps; RecorderSampleN keeps a deterministic 1-in-N baseline
	// sample of routine traffic. 0 means the defaults in recorder.go.
	RecorderSlowK   int
	RecorderSampleN int64

	// Logger receives the structured request log. nil means
	// slog.Default().
	Logger *slog.Logger
}

// Defaults for the zero Config.
const (
	DefaultMaxInFlight    = 16
	DefaultMaxSourceBytes = 1 << 20
	DefaultCacheEntries   = 256
	DefaultSLOLatency     = 250 * time.Millisecond
)

// Server is the vrpd HTTP service. Create with New, serve with
// ListenAndServe or Serve, stop with Shutdown.
type Server struct {
	cfg      Config
	log      *slog.Logger
	m        *serverMetrics
	cache    *resultCache
	fstore   *funcStore
	recorder *flightRecorder
	sem      chan struct{}

	mux      *http.ServeMux
	http     *http.Server
	draining atomic.Bool
	reqSeq   atomic.Int64
	idPrefix string

	// testHookAnalyze, when non-nil, runs after the request body is read
	// and before the analysis starts. Test-only: the drain and
	// load-shedding tests use it to hold a request in flight.
	testHookAnalyze func()
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxSourceBytes <= 0 {
		cfg.MaxSourceBytes = DefaultMaxSourceBytes
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = DefaultCacheEntries
	}
	if cfg.FuncStoreEntries == 0 {
		cfg.FuncStoreEntries = DefaultFuncStoreEntries
	}
	if cfg.RecorderEntries == 0 {
		cfg.RecorderEntries = DefaultRecorderEntries
	}
	if cfg.SLOLatency == 0 {
		cfg.SLOLatency = DefaultSLOLatency
	}
	sloTarget := cfg.SLOLatency.Seconds()
	if sloTarget < 0 {
		sloTarget = 0 // negative = SLO tracking disabled
	}
	lg := cfg.Logger
	if lg == nil {
		lg = slog.Default()
	}
	start := time.Now()
	m := newServerMetrics(start, sloTarget)
	s := &Server{
		cfg:      cfg,
		log:      lg,
		m:        m,
		cache:    newResultCache(cfg.CacheEntries),
		fstore:   newFuncStore(cfg.FuncStoreEntries, m),
		recorder: newFlightRecorder(cfg.RecorderEntries, cfg.RecorderSlowK, cfg.RecorderSampleN),
		sem:      make(chan struct{}, cfg.MaxInFlight),
		mux:      http.NewServeMux(),
		idPrefix: strconv.FormatInt(start.UnixNano()&0xfffffff, 36),
	}
	if s.fstore != nil {
		m.reg.GaugeFunc("vrpd_funcstore_entries", "Fingerprint buckets resident in the per-function result store.",
			func() float64 { return float64(s.fstore.len()) })
	}
	if s.recorder != nil {
		m.reg.GaugeFunc("vrpd_recorder_entries", "Requests currently retained by the flight recorder.",
			func() float64 { return float64(s.recorder.len()) })
	}
	s.mux.Handle("/v1/analyze", s.instrument("/v1/analyze", s.handleAnalyze))
	s.mux.Handle("/v1/analyze-batch", s.instrument("/v1/analyze-batch", s.handleAnalyzeBatch))
	s.mux.Handle("/metrics", s.instrument("/metrics", s.m.reg.Handler().ServeHTTP))
	s.mux.Handle("/healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.Handle("/readyz", s.instrument("/readyz", s.handleReadyz))
	s.mux.Handle("/debug/vrpd/requests", s.instrument("/debug/vrpd/requests", s.handleRequests))
	s.mux.Handle("/debug/vrpd/quality", s.instrument("/debug/vrpd/quality", s.handleQuality))
	s.mux.Handle("/debug/vrpd/trace/", s.instrument("/debug/vrpd/trace", s.handleTrace))
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.http = &http.Server{Handler: s.mux}
	return s
}

// Handler returns the server's root handler (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's registry (the CLI uses it for a final
// stats line; tests scrape it directly).
func (s *Server) Metrics() http.Handler { return s.m.reg.Handler() }

// Serve accepts connections on ln until Shutdown. A clean shutdown
// returns nil.
func (s *Server) Serve(ln net.Listener) error {
	err := s.http.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe binds addr and serves until ctx is cancelled, then
// drains with the given timeout (0 = wait indefinitely).
func (s *Server) ListenAndServe(ctx context.Context, addr string, drainTimeout time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.log.Info("vrpd listening", "addr", ln.Addr().String())
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		s.log.Info("vrpd draining", "reason", context.Cause(ctx))
		sctx := context.Background()
		if drainTimeout > 0 {
			var cancel context.CancelFunc
			sctx, cancel = context.WithTimeout(sctx, drainTimeout)
			defer cancel()
		}
		if err := s.Shutdown(sctx); err != nil {
			return err
		}
		return <-errc
	}
}

// Shutdown flips readiness to 503 and gracefully drains: it blocks until
// every in-flight request has completed or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	return s.http.Shutdown(ctx)
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// ---------------------------------------------------------- middleware

// statusWriter captures the status code and bytes written for the
// request log and the requests_total counter.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// instrument assigns the request ID, counts the request by path and
// status, and emits exactly one structured log record per request.
func (s *Server) instrument(path string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("%s-%06d", s.idPrefix, s.reqSeq.Add(1))
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		h(sw, r.WithContext(withRequestID(r.Context(), id)))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		dur := time.Since(t0)
		s.m.requests.With(path, strconv.Itoa(sw.status)).Inc()
		s.log.Info("request",
			"id", id,
			"method", r.Method,
			"path", path,
			"status", sw.status,
			"dur_ms", float64(dur.Microseconds())/1e3,
			"bytes_out", sw.bytes,
		)
	})
}

type ctxKey int

const requestIDKey ctxKey = 0

func withRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

func requestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// ------------------------------------------------------------ handlers

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// AnalyzeResponse is the JSON body of a successful POST /v1/analyze.
type AnalyzeResponse struct {
	Converged   bool             `json:"converged"`
	Predictions []PredictionJSON `json:"predictions"`
	Diagnostics []DiagnosticJSON `json:"diagnostics,omitempty"`
	Stats       StatsJSON        `json:"stats"`

	// Explanation is the rendered provenance chain for ?explain=.
	Explanation string `json:"explanation,omitempty"`
	// Telemetry is the run's full snapshot for ?telemetry=1.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`

	// quality is the run's prediction-quality digest, carried to the
	// flight recorder (unexported: not part of the response body, which
	// must stay byte-identical between fresh analyses and cache hits).
	quality *telemetry.Quality
}

// PredictionJSON is one conditional branch's prediction.
type PredictionJSON struct {
	Func   string  `json:"func"`
	Line   int     `json:"line"`
	Col    int     `json:"col"`
	Prob   float64 `json:"prob"`
	Source string  `json:"source"`
}

// DiagnosticJSON is one structured analysis event.
type DiagnosticJSON struct {
	Kind string `json:"kind"`
	Func string `json:"func,omitempty"`
	SCC  int    `json:"scc"`
	Pass int    `json:"pass"`
	Msg  string `json:"msg"`
}

// StatsJSON summarizes the engine's work for one analysis.
type StatsJSON struct {
	Passes        int   `json:"passes"`
	ExprEvals     int64 `json:"expr_evals"`
	PhiEvals      int64 `json:"phi_evals"`
	SubOps        int64 `json:"sub_ops"`
	FuncsAnalyzed int64 `json:"funcs_analyzed"`
	FuncsSkipped  int64 `json:"funcs_skipped"`
	FuncsDegraded int64 `json:"funcs_degraded"`
	RecWidens     int64 `json:"rec_widens"`
}

// errorResponse is the JSON body of every failed request.
type errorResponse struct {
	Error string `json:"error"`
	Stage string `json:"stage,omitempty"` // "read", "compile", "analyze", "explain"
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "", "POST Mini source to /v1/analyze")
		return
	}

	// The latency histogram covers every /v1/analyze outcome, load sheds
	// included, so timing starts before the shed check: observing only
	// admitted requests would make overload latency look artificially
	// healthy exactly when it matters.
	t0 := time.Now()
	defer func() { s.m.latency.Observe(time.Since(t0).Seconds()) }()

	// Every request carries a span tree from here down: validate →
	// cache probe → parse → SSA → VRP (driver sub-spans nest inside) →
	// render → write, all under one root. The tree is cheap (a handful
	// of spans plus one per engine run), feeds the per-phase histograms,
	// and — when the flight recorder keeps the request — is served back
	// verbatim from /debug/vrpd/trace/{id}.
	tr := telemetry.NewTrace()
	root := tr.Start(telemetry.NoSpan, "request", "POST /v1/analyze")

	// Load shedding: reject immediately when MaxInFlight analyses are
	// already running — a bounded queue beats an unbounded pile-up.
	select {
	case s.sem <- struct{}{}:
	default:
		s.m.shed.Inc()
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests, "", "server at capacity, retry later")
		s.finishAnalyze(r.Context(), tr, root, 0, "shed", http.StatusTooManyRequests, nil, time.Since(t0))
		return
	}
	defer func() { <-s.sem }()
	s.m.inflight.Inc()
	defer s.m.inflight.Dec()

	vSpan := tr.Start(root, "phase", "validate")
	src, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes))
	if err != nil {
		tr.End(vSpan)
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.countOutcome("too_large")
			s.writeError(w, http.StatusRequestEntityTooLarge, "read",
				fmt.Sprintf("source exceeds %d bytes", s.cfg.MaxSourceBytes))
			s.finishAnalyze(r.Context(), tr, root, 0, "too_large", http.StatusRequestEntityTooLarge, nil, time.Since(t0))
			return
		}
		s.countOutcome("read_error")
		s.writeError(w, http.StatusBadRequest, "read", err.Error())
		s.finishAnalyze(r.Context(), tr, root, 0, "read_error", http.StatusBadRequest, nil, time.Since(t0))
		return
	}
	if len(src) == 0 {
		tr.End(vSpan)
		s.countOutcome("empty")
		s.writeError(w, http.StatusBadRequest, "read", "empty body: POST Mini source")
		s.finishAnalyze(r.Context(), tr, root, 0, "empty", http.StatusBadRequest, nil, time.Since(t0))
		return
	}
	tr.Annotate(vSpan, "bytes", strconv.Itoa(len(src)))
	tr.End(vSpan)
	s.m.srcBytes.Observe(float64(len(src)))
	fp := hashSource(src)

	if s.testHookAnalyze != nil {
		s.testHookAnalyze()
	}

	q := r.URL.Query()
	explain := q.Get("explain")
	wantTelemetry := q.Get("telemetry") == "1"

	if explain == "" && !wantTelemetry {
		status, outcome, disp, body, resp := s.analyzePlain(r.Context(), src, tr, root)
		s.countOutcome(outcome)
		wSpan := tr.Start(root, "phase", "write")
		s.logAnalyze(r, outcome, disp, t0, resp)
		s.writeBody(w, status, body)
		tr.End(wSpan)
		s.finishAnalyze(r.Context(), tr, root, fp, outcome, status, resp, time.Since(t0))
		return
	}

	// Explain and telemetry responses carry per-run payloads, so they
	// bypass the response cache entirely.
	s.m.cacheBypass.Inc()
	resp, status, outcome, errResp := s.analyze(r.Context(), src, explain, wantTelemetry, tr, root)
	s.countOutcome(outcome)
	if errResp != nil {
		wSpan := tr.Start(root, "phase", "write")
		s.logAnalyze(r, outcome, "bypass", t0, nil)
		s.writeJSON(w, status, errResp)
		tr.End(wSpan)
		s.finishAnalyze(r.Context(), tr, root, fp, outcome, status, nil, time.Since(t0))
		return
	}
	rSpan := tr.Start(root, "phase", "render")
	body := marshalBody(resp)
	tr.End(rSpan)
	wSpan := tr.Start(root, "phase", "write")
	s.logAnalyze(r, outcome, "bypass", t0, resp)
	s.writeBody(w, status, body)
	tr.End(wSpan)
	s.finishAnalyze(r.Context(), tr, root, fp, outcome, status, resp, time.Since(t0))
}

// finishAnalyze closes the root span, folds the request's phase durations
// into the per-phase histograms and the SLO window, and offers the
// request to the flight recorder. It runs once per /v1/analyze request,
// sheds and errors included, after the response has been written.
func (s *Server) finishAnalyze(ctx context.Context, tr *telemetry.Trace, root telemetry.SpanID,
	fp uint64, outcome string, status int, resp *AnalyzeResponse, dur time.Duration) {
	tr.Annotate(root, "outcome", outcome)
	tr.End(root)
	spans := tr.Spans()
	phases := telemetry.PhaseDurations(spans, root)
	for name, ns := range phases {
		if h := s.m.phaseDur[name]; h != nil {
			h.Observe(float64(ns) / 1e9)
		}
	}
	if s.m.slo.observe(dur.Seconds()) {
		s.m.sloOver.Inc()
	}
	if s.recorder == nil {
		return
	}
	e := &recordedRequest{
		ID:      requestID(ctx),
		Path:    "/v1/analyze",
		Outcome: outcome,
		Status:  status,
		// Errors and sheds default to non-converged so interesting()
		// holds; a successful response overrides from its real result.
		Converged: status < 400,
		DurMS:     float64(dur.Microseconds()) / 1e3,
		Phases:    phases,
		Spans:     spans,
	}
	if fp != 0 {
		e.Fingerprint = fmt.Sprintf("%016x", fp)
	}
	if resp != nil {
		e.Converged = resp.Converged
		e.Degraded = resp.Stats.FuncsDegraded > 0
		e.Quality = resp.quality
	}
	if class, kept := s.recorder.offer(e); kept {
		s.m.kept.With(class).Inc()
	}
}

// testHookHashSource, when non-nil, may override the response-cache
// fingerprint of a source. Test-only: the collision tests force two
// different programs onto one digest to prove the source-equality
// confirm serves a fresh analysis rather than the colliding body.
var testHookHashSource func(src []byte) (uint64, bool)

func hashSource(src []byte) uint64 {
	if testHookHashSource != nil {
		if h, ok := testHookHashSource(src); ok {
			return h
		}
	}
	return vrange.HashBytes(src)
}

// cacheProbe looks src up in the response cache and returns the request's
// cache disposition: "hit" (body is the cached response), "miss", or
// "bypass" (caching disabled). Hit/miss/bypass/collision counters are
// maintained here so /v1/analyze and batch items count identically.
func (s *Server) cacheProbe(src []byte) (key uint64, body []byte, disp string) {
	if s.cache == nil {
		s.m.cacheBypass.Inc()
		return 0, nil, "bypass"
	}
	key = hashSource(src)
	cached, ok, collided := s.cache.get(key, src)
	if collided {
		s.m.cacheCollisions.Inc()
	}
	if ok {
		s.m.cacheHits.Inc()
		return key, cached, "hit"
	}
	s.m.cacheMisses.Inc()
	return key, nil, "miss"
}

// cacheFill stores a successful plain response body under (key, src).
func (s *Server) cacheFill(key uint64, src, body []byte) {
	if s.cache == nil {
		return
	}
	evicted, collided := s.cache.put(key, src, body)
	if evicted > 0 {
		s.m.cacheEvictions.Add(int64(evicted))
	}
	if collided {
		s.m.cacheCollisions.Inc()
	}
}

// marshalBody serializes a response value exactly as writeJSON does
// (compact JSON plus trailing newline), so cached bodies, batch items and
// direct writes are all byte-identical.
func marshalBody(v any) []byte {
	body, err := json.Marshal(v)
	if err != nil { // cannot happen for these types; fail loudly anyway
		body, _ = json.Marshal(&errorResponse{Error: err.Error(), Stage: "encode"})
	}
	return append(body, '\n')
}

// analyzePlain serves one plain analysis (no explain, no telemetry
// attachment) through the response cache. It is the shared core of
// /v1/analyze and each /v1/analyze-batch item: callers get the HTTP
// status, outcome label, cache disposition, the exact response body, and
// — when a fresh analysis succeeded — the decoded response for logging.
func (s *Server) analyzePlain(ctx context.Context, src []byte, tr *telemetry.Trace, parent telemetry.SpanID) (status int, outcome, disp string, body []byte, resp *AnalyzeResponse) {
	cpSpan := tr.Start(parent, "phase", "cache_probe")
	key, cached, disp := s.cacheProbe(src)
	if tr != nil {
		tr.Annotate(cpSpan, "disposition", disp)
		tr.End(cpSpan)
	}
	if disp == "hit" {
		return http.StatusOK, "cache_hit", disp, cached, nil
	}
	r, status, outcome, errResp := s.analyze(ctx, src, "", false, tr, parent)
	if errResp != nil {
		return status, outcome, disp, marshalBody(errResp), nil
	}
	rSpan := tr.Start(parent, "phase", "render")
	body = marshalBody(r)
	if disp == "miss" {
		s.cacheFill(key, src, body)
	}
	tr.End(rSpan)
	return status, outcome, disp, body, r
}

// analyze compiles and analyzes src, threading the run's telemetry into
// the lattice metrics. It returns either a response or an error body.
func (s *Server) analyze(ctx context.Context, src []byte, explain string, wantTelemetry bool, tr *telemetry.Trace, parent telemetry.SpanID) (*AnalyzeResponse, int, string, *errorResponse) {
	prog, err := vrp.CompileWith("request.mini", string(src), vrp.CompileOptions{Trace: tr, TraceParent: parent})
	if err != nil {
		return nil, http.StatusUnprocessableEntity, "compile_error", &errorResponse{Error: err.Error(), Stage: "compile"}
	}
	return s.analyzeCompiled(ctx, prog, explain, wantTelemetry, tr, parent)
}

// analyzeCompiled runs VRP on an already compiled program (the batch
// pipeline compiles item i+1 while this analyzes item i).
func (s *Server) analyzeCompiled(ctx context.Context, prog *vrp.Program, explain string, wantTelemetry bool, tr *telemetry.Trace, parent telemetry.SpanID) (*AnalyzeResponse, int, string, *errorResponse) {
	if s.cfg.AnalyzeTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.AnalyzeTimeout)
		defer cancel()
	}
	vrpSpan := tr.Start(parent, "phase", "vrp")
	opts := []vrp.Option{vrp.WithTelemetry(), vrp.WithTrace(tr, vrpSpan)}
	// Telemetry snapshots include per-function run counters, which a
	// store splice deliberately does not replay — so telemetry requests
	// skip the store to keep their snapshots faithful to a real full run.
	if s.fstore != nil && !wantTelemetry {
		opts = append(opts, vrp.WithFuncStore(s.fstore))
	}
	analysis, err := prog.AnalyzeContext(ctx, opts...)
	tr.End(vrpSpan)
	if err != nil {
		status, outcome := http.StatusInternalServerError, "analysis_error"
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status, outcome = http.StatusServiceUnavailable, "cancelled"
		}
		return nil, status, outcome, &errorResponse{Error: err.Error(), Stage: "analyze"}
	}

	snap := analysis.Telemetry()
	s.m.observeSnapshot(snap)
	if analysis.Converged() {
		s.m.converged.Inc()
	} else {
		s.m.notConverged.Inc()
	}

	resp := &AnalyzeResponse{
		Converged:   analysis.Converged(),
		Predictions: []PredictionJSON{},
		Stats: StatsJSON{
			Passes:        analysis.Result.Stats.Passes,
			ExprEvals:     analysis.Result.Stats.ExprEvals,
			PhiEvals:      analysis.Result.Stats.PhiEvals,
			SubOps:        analysis.Result.Stats.SubOps,
			FuncsAnalyzed: analysis.Result.Stats.FuncsAnalyzed,
			FuncsSkipped:  analysis.Result.Stats.FuncsSkipped,
			FuncsDegraded: analysis.Result.Stats.FuncsDegraded,
			RecWidens:     analysis.Result.Stats.RecWidens,
		},
		quality: analysis.Quality(),
	}
	for _, p := range analysis.Predictions() {
		resp.Predictions = append(resp.Predictions, PredictionJSON{
			Func:   p.Func,
			Line:   p.Pos.Line,
			Col:    p.Pos.Col,
			Prob:   p.Prob,
			Source: p.Source,
		})
	}
	for _, d := range analysis.Diagnostics() {
		resp.Diagnostics = append(resp.Diagnostics, DiagnosticJSON{
			Kind: d.Kind.String(),
			Func: d.Func,
			SCC:  d.SCC,
			Pass: d.Pass,
			Msg:  d.Msg,
		})
	}
	if explain != "" {
		fn, line := explain, 0
		if i := strings.LastIndexByte(explain, ':'); i >= 0 {
			n, err := strconv.Atoi(explain[i+1:])
			if err != nil {
				return nil, http.StatusBadRequest, "explain_error",
					&errorResponse{Error: fmt.Sprintf("bad explain target %q: want func or func:line", explain), Stage: "explain"}
			}
			fn, line = explain[:i], n
		}
		be, err := analysis.ExplainBranch(fn, line)
		if err != nil {
			return nil, http.StatusUnprocessableEntity, "explain_error", &errorResponse{Error: err.Error(), Stage: "explain"}
		}
		resp.Explanation = be.String()
	}
	if wantTelemetry {
		resp.Telemetry = snap
	}
	return resp, http.StatusOK, "ok", nil
}

// ---------------------------------------------------------------- batch

// MaxBatchPrograms bounds one /v1/analyze-batch request.
const MaxBatchPrograms = 64

// batchRequest is the JSON body of POST /v1/analyze-batch.
type batchRequest struct {
	Programs []string `json:"programs"`
}

// batchItem is one program's result. Status is the HTTP status the same
// program POSTed to /v1/analyze would have produced, and Body is
// byte-identical to that response's body.
type batchItem struct {
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body"`
}

// batchResponse is the JSON body of a successful batch request. The
// envelope itself is 200 even when individual items failed; per-item
// status lives in each result.
type batchResponse struct {
	Results []batchItem `json:"results"`
}

// handleAnalyzeBatch serves POST /v1/analyze-batch: N plain analyses in
// one request, sharing one in-flight slot and the warm response cache and
// per-function store. Items are processed in order, but as a two-stage
// pipeline: a producer goroutine runs the cheap front half (validation,
// cache probe, parse→SSA) of item i+1 while this goroutine runs VRP on
// item i.
func (s *Server) handleAnalyzeBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "", "POST a JSON batch to /v1/analyze-batch")
		return
	}

	// As with /v1/analyze, timing starts before the shed check so 429s
	// are visible in the batch latency histogram.
	t0 := time.Now()
	defer func() { s.m.batchLatency.Observe(time.Since(t0).Seconds()) }()

	// One batch holds one in-flight slot: its items run sequentially
	// (pipelined against compilation), so however large, it occupies a
	// single analysis lane.
	select {
	case s.sem <- struct{}{}:
	default:
		s.m.shed.Inc()
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests, "", "server at capacity, retry later")
		return
	}
	defer func() { <-s.sem }()
	s.m.inflight.Inc()
	defer s.m.inflight.Dec()

	maxBody := s.cfg.MaxSourceBytes * MaxBatchPrograms
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "read",
				fmt.Sprintf("batch exceeds %d bytes", maxBody))
			return
		}
		s.writeError(w, http.StatusBadRequest, "read", err.Error())
		return
	}
	var req batchRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "read", "bad batch JSON: "+err.Error())
		return
	}
	if len(req.Programs) == 0 {
		s.writeError(w, http.StatusBadRequest, "read", `empty batch: want {"programs": ["...", ...]}`)
		return
	}
	if len(req.Programs) > MaxBatchPrograms {
		s.writeError(w, http.StatusBadRequest, "read",
			fmt.Sprintf("batch of %d programs exceeds the %d-program cap", len(req.Programs), MaxBatchPrograms))
		return
	}
	s.m.batchSize.Observe(float64(len(req.Programs)))

	if s.testHookAnalyze != nil {
		s.testHookAnalyze()
	}

	// batchJob carries one item through the pipeline. Stage one resolves
	// it outright (validation failure, cache hit, compile error → body
	// set) or hands over a compiled program for stage two to analyze.
	type batchJob struct {
		src     []byte
		key     uint64
		disp    string
		status  int
		outcome string
		body    []byte       // non-nil: resolved by stage one
		prog    *vrp.Program // non-nil: ready for VRP
	}
	jobs := make(chan *batchJob, len(req.Programs))
	go func() {
		defer close(jobs)
		for _, p := range req.Programs {
			job := &batchJob{src: []byte(p), disp: "bypass"}
			switch {
			case len(job.src) == 0:
				job.status, job.outcome = http.StatusBadRequest, "empty"
				job.body = marshalBody(&errorResponse{Error: "empty body: POST Mini source", Stage: "read"})
			case int64(len(job.src)) > s.cfg.MaxSourceBytes:
				job.status, job.outcome = http.StatusRequestEntityTooLarge, "too_large"
				job.body = marshalBody(&errorResponse{
					Error: fmt.Sprintf("source exceeds %d bytes", s.cfg.MaxSourceBytes), Stage: "read"})
			default:
				s.m.srcBytes.Observe(float64(len(job.src)))
				var cached []byte
				job.key, cached, job.disp = s.cacheProbe(job.src)
				if job.disp == "hit" {
					job.status, job.outcome, job.body = http.StatusOK, "cache_hit", cached
					break
				}
				prog, err := vrp.Compile("request.mini", string(job.src))
				if err != nil {
					job.status, job.outcome = http.StatusUnprocessableEntity, "compile_error"
					job.body = marshalBody(&errorResponse{Error: err.Error(), Stage: "compile"})
					break
				}
				job.prog = prog
			}
			jobs <- job
		}
	}()

	results := make([]batchItem, 0, len(req.Programs))
	for job := range jobs {
		if job.body == nil {
			resp, status, outcome, errResp := s.analyzeCompiled(r.Context(), job.prog, "", false, nil, telemetry.NoSpan)
			job.status, job.outcome = status, outcome
			if errResp != nil {
				job.body = marshalBody(errResp)
			} else {
				job.body = marshalBody(resp)
				if job.disp == "miss" {
					s.cacheFill(job.key, job.src, job.body)
				}
			}
		}
		s.countOutcome(job.outcome)
		// Bodies are compact json.Marshal output, so embedding them as a
		// RawMessage (minus the framing newline) re-serializes to the
		// exact same bytes /v1/analyze sent.
		results = append(results, batchItem{
			Status: job.status,
			Body:   json.RawMessage(bytes.TrimSuffix(job.body, []byte("\n"))),
		})
	}
	s.writeJSON(w, http.StatusOK, &batchResponse{Results: results})
}

// logAnalyze emits the analysis-specific log record (the instrument
// middleware separately logs the HTTP envelope).
func (s *Server) logAnalyze(r *http.Request, outcome, cache string, t0 time.Time, resp *AnalyzeResponse) {
	attrs := []any{
		"id", requestID(r.Context()),
		"outcome", outcome,
		"cache", cache,
		"dur_ms", float64(time.Since(t0).Microseconds()) / 1e3,
	}
	if resp != nil {
		attrs = append(attrs,
			"converged", resp.Converged,
			"predictions", len(resp.Predictions),
			"diagnostics", len(resp.Diagnostics),
			"passes", resp.Stats.Passes,
			"funcs_analyzed", resp.Stats.FuncsAnalyzed,
		)
	}
	s.log.Info("analyze", attrs...)
}

func (s *Server) countOutcome(outcome string) {
	s.m.analyses.With(outcome).Inc()
}

func (s *Server) writeError(w http.ResponseWriter, status int, stage, msg string) {
	s.writeJSON(w, status, &errorResponse{Error: msg, Stage: stage})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.writeBody(w, status, append(body, '\n'))
}

func (s *Server) writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}
