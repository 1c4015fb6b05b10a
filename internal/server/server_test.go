package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// exampleSource is the paper's worked example, shared with the CLIs.
func exampleSource(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("../../testdata/example.mini")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *bytes.Buffer) {
	t.Helper()
	var logBuf bytes.Buffer
	cfg := Config{
		Logger: slog.New(slog.NewJSONHandler(&syncWriter{w: &logBuf}, nil)),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg), &logBuf
}

// syncWriter serializes concurrent slog writes so tests can read the
// buffer without racing the handler.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func postAnalyze(t *testing.T, h http.Handler, path, src string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(src)))
	return rec
}

// scrape fetches /metrics and parses every sample line into a
// name{labels} → value map.
func scrape(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestAnalyzeEndpoint: one POST returns predictions with the paper's
// Figure 4 probabilities and a converged, diagnostics-free result.
func TestAnalyzeEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	rec := postAnalyze(t, srv.Handler(), "/v1/analyze", exampleSource(t))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	if id := rec.Header().Get("X-Request-Id"); id == "" {
		t.Error("missing X-Request-Id header")
	}
	var resp AnalyzeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Converged {
		t.Error("example.mini analysis did not converge")
	}
	if len(resp.Diagnostics) != 0 {
		t.Errorf("unexpected diagnostics: %+v", resp.Diagnostics)
	}
	if len(resp.Predictions) != 3 {
		t.Fatalf("predictions = %d, want 3 (Figure 4)", len(resp.Predictions))
	}
	// The paper's 91% / 20% / 30%.
	want := []float64{0.9091, 0.20, 0.30}
	for i, p := range resp.Predictions {
		if diff := p.Prob - want[i]; diff > 0.01 || diff < -0.01 {
			t.Errorf("prediction %d: prob = %.4f, want ≈ %.4f", i, p.Prob, want[i])
		}
		if p.Source != "range" {
			t.Errorf("prediction %d: source = %q, want range", i, p.Source)
		}
		if p.Line == 0 {
			t.Errorf("prediction %d: missing line", i)
		}
	}
	if resp.Stats.Passes == 0 || resp.Stats.FuncsAnalyzed == 0 {
		t.Errorf("empty stats: %+v", resp.Stats)
	}
	if resp.Telemetry != nil || resp.Explanation != "" {
		t.Error("telemetry/explanation present without the query flags")
	}
}

// TestMetricsGoldenScrape is the acceptance scrape: after exactly one
// analyze, /metrics must expose the request counter, latency histogram
// buckets, cache hit/miss counters, and the lattice-level telemetry
// series (steps, φ-merges, widens, intern hit ratio, and friends) with
// values consistent with one run.
func TestMetricsGoldenScrape(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	if rec := postAnalyze(t, srv.Handler(), "/v1/analyze", exampleSource(t)); rec.Code != http.StatusOK {
		t.Fatalf("analyze status = %d", rec.Code)
	}
	m := scrape(t, srv.Handler())

	// Exact values: one request, one cacheable miss, zero hits/sheds.
	for series, want := range map[string]float64{
		`vrpd_http_requests_total{path="/v1/analyze",code="200"}`: 1,
		`vrpd_analyses_total{outcome="ok"}`:                       1,
		`vrpd_analyses_converged_total`:                           1,
		`vrpd_analyses_not_converged_total`:                       0,
		`vrpd_cache_hits_total`:                                   0,
		`vrpd_cache_misses_total`:                                 1,
		`vrpd_cache_bypass_total`:                                 0,
		`vrpd_cache_evictions_total`:                              0,
		`vrpd_requests_shed_total`:                                0,
		`vrpd_inflight_requests`:                                  0,
		`vrpd_analyze_duration_seconds_count`:                     1,
		`vrpd_analyze_source_bytes_count`:                         1,
		`vrpd_analysis_passes_count`:                              1,
	} {
		if got, ok := m[series]; !ok {
			t.Errorf("scrape missing %s", series)
		} else if got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}

	// The full latency bucket ladder must be present and cumulative up
	// to the +Inf bucket holding the one observation.
	for _, le := range []string{"0.0005", "0.005", "0.05", "0.5", "5", "+Inf"} {
		series := fmt.Sprintf(`vrpd_analyze_duration_seconds_bucket{le="%s"}`, le)
		if _, ok := m[series]; !ok {
			t.Errorf("scrape missing latency bucket %s", series)
		}
	}
	if m[`vrpd_analyze_duration_seconds_bucket{le="+Inf"}`] != 1 {
		t.Errorf("+Inf latency bucket = %v, want 1", m[`vrpd_analyze_duration_seconds_bucket{le="+Inf"}`])
	}

	// Lattice-level telemetry: one real analysis does engine work, so
	// these must all be positive. (example.mini's loops are caught by the
	// derivation templates, so widens stays 0 here — asserted positive
	// below with a source the templates cannot derive.)
	for _, series := range []string{
		"vrpd_lattice_steps_total",
		"vrpd_lattice_phi_merges_total",
		"vrpd_lattice_funcs_analyzed_total",
	} {
		if v, ok := m[series]; !ok {
			t.Errorf("scrape missing %s", series)
		} else if v <= 0 {
			t.Errorf("%s = %v, want > 0 after one analysis", series, v)
		}
	}
	// The range calculator keeps no intern or memo tables, so no series
	// may report on them.
	for series := range m {
		if strings.HasPrefix(series, "vrpd_lattice_intern_") || strings.HasPrefix(series, "vrpd_lattice_memo_") {
			t.Errorf("scrape still exports %s", series)
		}
	}
	if v, ok := m["vrpd_lattice_widens_total"]; !ok || v != 0 {
		t.Errorf("vrpd_lattice_widens_total = %v, %v; want present and 0 (derived loops)", v, ok)
	}

	// Geometric growth misses the inductive derivation template, so
	// brute-force propagation must widen — and the counter must show it.
	widening := "func main() { var x = 1; while (x < 1000000) { x = x * 2; } print(x); }"
	if rec := postAnalyze(t, srv.Handler(), "/v1/analyze", widening); rec.Code != http.StatusOK {
		t.Fatalf("widening analyze status = %d", rec.Code)
	}
	m = scrape(t, srv.Handler())
	if m["vrpd_lattice_widens_total"] <= 0 {
		t.Errorf("vrpd_lattice_widens_total = %v after a non-derivable loop, want > 0", m["vrpd_lattice_widens_total"])
	}
}

// TestCacheHitByteIdentical: the second POST of the same source is a
// cache hit returning the exact bytes of the first response, and the
// counters say so.
func TestCacheHitByteIdentical(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	src := exampleSource(t)
	first := postAnalyze(t, srv.Handler(), "/v1/analyze", src)
	second := postAnalyze(t, srv.Handler(), "/v1/analyze", src)
	if first.Code != http.StatusOK || second.Code != http.StatusOK {
		t.Fatalf("status = %d, %d", first.Code, second.Code)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("cache hit returned different bytes than the populating miss")
	}
	m := scrape(t, srv.Handler())
	if m["vrpd_cache_hits_total"] != 1 || m["vrpd_cache_misses_total"] != 1 {
		t.Errorf("cache hits/misses = %v/%v, want 1/1",
			m["vrpd_cache_hits_total"], m["vrpd_cache_misses_total"])
	}
	if m["vrpd_cache_hit_ratio"] != 0.5 {
		t.Errorf("cache hit ratio = %v, want 0.5", m["vrpd_cache_hit_ratio"])
	}
	// Lattice work was done exactly once: the hit ran no engine.
	if m[`vrpd_analyses_total{outcome="cache_hit"}`] != 1 {
		t.Errorf("cache_hit outcome = %v, want 1", m[`vrpd_analyses_total{outcome="cache_hit"}`])
	}
}

// TestCacheEviction: a 1-entry cache evicts on the second distinct
// source.
func TestCacheEviction(t *testing.T) {
	srv, _ := newTestServer(t, func(c *Config) { c.CacheEntries = 1 })
	a := "func main() { print(1); }"
	b := "func main() { print(2); }"
	postAnalyze(t, srv.Handler(), "/v1/analyze", a)
	postAnalyze(t, srv.Handler(), "/v1/analyze", b)
	postAnalyze(t, srv.Handler(), "/v1/analyze", a) // evicted: a miss again
	m := scrape(t, srv.Handler())
	if m["vrpd_cache_evictions_total"] != 2 {
		t.Errorf("evictions = %v, want 2", m["vrpd_cache_evictions_total"])
	}
	if m["vrpd_cache_hits_total"] != 0 || m["vrpd_cache_misses_total"] != 3 {
		t.Errorf("hits/misses = %v/%v, want 0/3", m["vrpd_cache_hits_total"], m["vrpd_cache_misses_total"])
	}
}

// TestTelemetryAndExplainQueries: ?telemetry=1 attaches the snapshot,
// ?explain=main:5 the provenance chain; both bypass the cache.
func TestTelemetryAndExplainQueries(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	src := exampleSource(t)

	rec := postAnalyze(t, srv.Handler(), "/v1/analyze?telemetry=1", src)
	if rec.Code != http.StatusOK {
		t.Fatalf("telemetry status = %d: %s", rec.Code, rec.Body.String())
	}
	var tresp AnalyzeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &tresp); err != nil {
		t.Fatal(err)
	}
	if tresp.Telemetry == nil || tresp.Telemetry.Totals.Steps == 0 {
		t.Error("telemetry=1 returned no snapshot or an empty one")
	}

	rec = postAnalyze(t, srv.Handler(), "/v1/analyze?explain=main:5", src)
	if rec.Code != http.StatusOK {
		t.Fatalf("explain status = %d: %s", rec.Code, rec.Body.String())
	}
	var eresp AnalyzeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &eresp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eresp.Explanation, "branch on") {
		t.Errorf("explanation = %q, want a derivation chain", eresp.Explanation)
	}

	// A bad explain target is the client's fault, not a 500.
	rec = postAnalyze(t, srv.Handler(), "/v1/analyze?explain=nosuch:1", src)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("bad explain status = %d, want 422", rec.Code)
	}

	m := scrape(t, srv.Handler())
	if m["vrpd_cache_bypass_total"] != 3 {
		t.Errorf("cache bypass = %v, want 3", m["vrpd_cache_bypass_total"])
	}
	if m["vrpd_cache_misses_total"] != 0 {
		t.Errorf("cache misses = %v, want 0 (all requests bypassed)", m["vrpd_cache_misses_total"])
	}
}

// TestErrorPaths: malformed source → 422 compile error; empty body →
// 400; oversized body → 413; wrong method → 405. All as structured JSON.
func TestErrorPaths(t *testing.T) {
	srv, _ := newTestServer(t, func(c *Config) { c.MaxSourceBytes = 64 })

	rec := postAnalyze(t, srv.Handler(), "/v1/analyze", "func main( {")
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("compile error status = %d, want 422", rec.Code)
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Stage != "compile" || er.Error == "" {
		t.Errorf("compile error body = %+v", er)
	}

	if rec := postAnalyze(t, srv.Handler(), "/v1/analyze", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("empty body status = %d, want 400", rec.Code)
	}
	if rec := postAnalyze(t, srv.Handler(), "/v1/analyze", strings.Repeat("x", 100)); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413", rec.Code)
	}
	getRec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(getRec, httptest.NewRequest(http.MethodGet, "/v1/analyze", nil))
	if getRec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", getRec.Code)
	}

	m := scrape(t, srv.Handler())
	if m[`vrpd_analyses_total{outcome="compile_error"}`] != 1 {
		t.Errorf("compile_error outcome = %v, want 1", m[`vrpd_analyses_total{outcome="compile_error"}`])
	}
	if m[`vrpd_http_requests_total{path="/v1/analyze",code="422"}`] != 1 {
		t.Errorf("422 request counter = %v, want 1", m[`vrpd_http_requests_total{path="/v1/analyze",code="422"}`])
	}
}

// TestLoadShedding429: with MaxInFlight=1 and one request parked inside
// the analysis, a concurrent request is shed with 429 and counted, and
// the parked request still completes.
func TestLoadShedding429(t *testing.T) {
	srv, _ := newTestServer(t, func(c *Config) { c.MaxInFlight = 1 })
	block := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	srv.testHookAnalyze = func() {
		once.Do(func() { close(started) })
		<-block
	}

	src := exampleSource(t)
	firstDone := make(chan int)
	go func() {
		firstDone <- postAnalyze(t, srv.Handler(), "/v1/analyze", src).Code
	}()
	<-started

	rec := postAnalyze(t, srv.Handler(), "/v1/analyze", src)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(block)
	if code := <-firstDone; code != http.StatusOK {
		t.Errorf("parked request status = %d, want 200", code)
	}

	m := scrape(t, srv.Handler())
	if m["vrpd_requests_shed_total"] != 1 {
		t.Errorf("shed counter = %v, want 1", m["vrpd_requests_shed_total"])
	}
	if m[`vrpd_http_requests_total{path="/v1/analyze",code="429"}`] != 1 {
		t.Errorf("429 request counter = %v, want 1",
			m[`vrpd_http_requests_total{path="/v1/analyze",code="429"}`])
	}
}

// TestGracefulDrain: Shutdown flips /readyz to 503, waits for the
// in-flight request to finish (the client still gets its 200), and only
// then returns.
func TestGracefulDrain(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	block := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	srv.testHookAnalyze = func() {
		once.Do(func() { close(started) })
		<-block
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// Readiness before drain.
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz before drain = %d, want 200", resp.StatusCode)
	}

	// Park one analysis in flight.
	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/analyze", "text/plain", strings.NewReader(exampleSource(t)))
		if err != nil {
			reqDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(context.Background()) }()

	// Shutdown must not return while the request is still parked.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) before the in-flight request finished", err)
	case <-time.After(100 * time.Millisecond):
	}
	if !srv.Draining() {
		t.Error("server not draining after Shutdown began")
	}

	// Release the parked request: it completes with 200 and then
	// Shutdown returns cleanly.
	close(block)
	if code := <-reqDone; code != http.StatusOK {
		t.Errorf("in-flight request status = %d, want 200", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown error: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("Serve error after clean shutdown: %v", err)
	}
}

// TestHealthEndpoints: /healthz is always 200; /readyz flips to 503
// once draining.
func TestHealthEndpoints(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	for _, path := range []string{"/healthz", "/readyz"} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("%s = %d, want 200", path, rec.Code)
		}
	}
	srv.draining.Store(true)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining = %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/healthz while draining = %d, want 200", rec.Code)
	}
}

// TestStructuredRequestLog: every request produces one JSON "request"
// record with id/method/path/status/duration, and analyses add an
// "analyze" record with outcome, cache disposition and convergence.
func TestStructuredRequestLog(t *testing.T) {
	srv, logBuf := newTestServer(t, nil)
	rec := postAnalyze(t, srv.Handler(), "/v1/analyze", exampleSource(t))
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	wantID := rec.Header().Get("X-Request-Id")

	var reqLog, anaLog map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		switch m["msg"] {
		case "request":
			reqLog = m
		case "analyze":
			anaLog = m
		}
	}
	if reqLog == nil || anaLog == nil {
		t.Fatalf("missing request/analyze records in log:\n%s", logBuf.String())
	}
	if reqLog["id"] != wantID || anaLog["id"] != wantID {
		t.Errorf("log ids = %v, %v; want %q", reqLog["id"], anaLog["id"], wantID)
	}
	if reqLog["method"] != "POST" || reqLog["path"] != "/v1/analyze" || reqLog["status"] != float64(200) {
		t.Errorf("request record = %v", reqLog)
	}
	if _, ok := reqLog["dur_ms"]; !ok {
		t.Error("request record missing dur_ms")
	}
	if anaLog["outcome"] != "ok" || anaLog["cache"] != "miss" || anaLog["converged"] != true {
		t.Errorf("analyze record = %v", anaLog)
	}
}

// TestConcurrentAnalyzeRequests hammers the handler from many
// goroutines (distinct and repeated sources) under -race: the cache,
// metrics and lattice-counter folding must all be thread-safe, and
// every request must succeed.
func TestConcurrentAnalyzeRequests(t *testing.T) {
	srv, _ := newTestServer(t, func(c *Config) { c.MaxInFlight = 32 })
	const n = 24
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := fmt.Sprintf("func main() { for (var i = 0; i < %d; i++) { print(i); } }", 5+i%3)
			codes[i] = postAnalyze(t, srv.Handler(), "/v1/analyze", src).Code
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("request %d status = %d", i, c)
		}
	}
	m := scrape(t, srv.Handler())
	if got := m[`vrpd_http_requests_total{path="/v1/analyze",code="200"}`]; got != n {
		t.Errorf("200 count = %v, want %d", got, n)
	}
	if m["vrpd_cache_hits_total"]+m["vrpd_cache_misses_total"] != n {
		t.Errorf("cache hits+misses = %v, want %d",
			m["vrpd_cache_hits_total"]+m["vrpd_cache_misses_total"], n)
	}
	if m["vrpd_lattice_steps_total"] <= 0 {
		t.Error("no lattice steps recorded under concurrency")
	}
}

// TestPprofWired: the pprof index responds on /debug/pprof/.
func TestPprofWired(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("pprof index status = %d", rec.Code)
	}
}
