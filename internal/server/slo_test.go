package server

import (
	"math"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestSLOWindowUnit drives the sliding window with a fake clock: bucket
// reuse after the ring wraps, burn over different windows, and the
// no-traffic = 0 (not NaN) contract.
func TestSLOWindowUnit(t *testing.T) {
	now := time.Unix(1000, 0)
	w := newSLOWindow(0.1)
	w.now = func() time.Time { return now }

	if got := w.burn(60); got != 0 {
		t.Errorf("burn with no traffic = %v, want 0", got)
	}
	if w.observe(0.05) {
		t.Error("0.05s under a 0.1s target reported as blown")
	}
	if !w.observe(0.2) {
		t.Error("0.2s over a 0.1s target not reported as blown")
	}
	if got := w.burn(60); got != 0.5 {
		t.Errorf("burn = %v, want 0.5", got)
	}

	// 30s later, two fast requests: the 1m window sees all four.
	now = now.Add(30 * time.Second)
	w.observe(0.01)
	w.observe(0.01)
	if got := w.burn(60); got != 0.25 {
		t.Errorf("burn(60) = %v, want 0.25", got)
	}
	// A 10s window only sees the two fast ones.
	if got := w.burn(10); got != 0 {
		t.Errorf("burn(10) = %v, want 0", got)
	}

	// After the ring wraps, the stale bucket must reset, not accumulate.
	now = now.Add(sloRingSeconds * time.Second)
	w.observe(0.2)
	if got := w.burn(60); got != 1 {
		t.Errorf("burn after ring wrap = %v, want 1 (stale buckets expired)", got)
	}

	// Disabled target: observations count but never blow.
	d := newSLOWindow(0)
	d.now = func() time.Time { return now }
	if d.observe(100) {
		t.Error("disabled SLO target reported a blown request")
	}
	if got := d.burn(60); got != 0 {
		t.Errorf("disabled burn = %v, want 0", got)
	}

	// nil window: everything no-ops.
	var n *sloWindow
	if n.observe(1) || n.burn(60) != 0 {
		t.Error("nil sloWindow must no-op")
	}
}

// TestSLOMetricsEndToEnd: a sub-nanosecond target makes every request
// over-target, which must show in the counter and both burn gauges.
func TestSLOMetricsEndToEnd(t *testing.T) {
	srv, _ := newTestServer(t, func(c *Config) { c.SLOLatency = time.Nanosecond })
	if rec := postAnalyze(t, srv.Handler(), "/v1/analyze", exampleSource(t)); rec.Code != http.StatusOK {
		t.Fatalf("analyze status = %d", rec.Code)
	}
	m := scrape(t, srv.Handler())
	if got := m["vrpd_slo_target_seconds"]; got != 1e-9 {
		t.Errorf("vrpd_slo_target_seconds = %v, want 1e-9", got)
	}
	if got := m["vrpd_slo_over_target_total"]; got != 1 {
		t.Errorf("vrpd_slo_over_target_total = %v, want 1", got)
	}
	if got := m["vrpd_slo_burn_1m"]; got != 1 {
		t.Errorf("vrpd_slo_burn_1m = %v, want 1", got)
	}
	if got := m["vrpd_slo_burn_5m"]; got != 1 {
		t.Errorf("vrpd_slo_burn_5m = %v, want 1", got)
	}
}

// TestPhaseHistogramMatchesTrace pins the two-views-one-measurement
// design: for a single request, each phase histogram's sum must equal
// the recorder's span-derived phase duration (both come from the same
// Spans() snapshot, so agreement is exact up to float conversion).
func TestPhaseHistogramMatchesTrace(t *testing.T) {
	srv, _ := newTestServer(t, func(c *Config) { c.CacheEntries = -1 })
	if rec := postAnalyze(t, srv.Handler(), "/v1/analyze", exampleSource(t)); rec.Code != http.StatusOK {
		t.Fatalf("analyze status = %d", rec.Code)
	}
	idx := srv.recorder.index()
	if len(idx) != 1 {
		t.Fatalf("retained %d requests, want 1", len(idx))
	}
	phases := idx[0].Phases
	m := scrape(t, srv.Handler())
	for _, phase := range phaseNames {
		ns, traced := phases[phase]
		count := m[`vrpd_phase_duration_seconds_count{phase="`+phase+`"}`]
		sum := m[`vrpd_phase_duration_seconds_sum{phase="`+phase+`"}`]
		if !traced {
			// cache_probe is skipped when caching is disabled; its
			// histogram must then be empty too.
			if count != 0 {
				t.Errorf("phase %q: histogram count %v but no span recorded", phase, count)
			}
			continue
		}
		if count != 1 {
			t.Errorf("phase %q: histogram count = %v, want 1", phase, count)
		}
		want := float64(ns) / 1e9
		if math.Abs(sum-want) > 1e-12+1e-9*want {
			t.Errorf("phase %q: histogram sum %v disagrees with trace %v", phase, sum, want)
		}
	}
}

// TestBuildInfoAndRatioExposition: the info gauge renders with its
// labels and value 1 on a fresh server, and no ratio gauge ever renders
// as NaN before traffic (the zero-traffic ratio() contract).
func TestBuildInfoAndRatioExposition(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	m := scrape(t, srv.Handler())

	found := false
	for name, v := range m {
		if strings.HasPrefix(name, "vrpd_build_info{") {
			found = true
			if v != 1 {
				t.Errorf("%s = %v, want the constant 1", name, v)
			}
			for _, label := range []string{"version=", "goversion=", "gomaxprocs="} {
				if !strings.Contains(name, label) {
					t.Errorf("vrpd_build_info missing label %s: %s", label, name)
				}
			}
		}
	}
	if !found {
		t.Error("no vrpd_build_info series in the exposition")
	}

	for _, g := range []string{
		"vrpd_cache_hit_ratio",
		"vrpd_funcstore_hit_ratio",
	} {
		v, ok := m[g]
		if !ok {
			t.Errorf("missing ratio gauge %s", g)
			continue
		}
		if math.IsNaN(v) || v != 0 {
			t.Errorf("%s on a fresh server = %v, want exactly 0", g, v)
		}
	}

	// Belt and braces: the raw exposition must not contain NaN anywhere.
	var buf strings.Builder
	if err := srv.m.reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Error("fresh /metrics exposition contains NaN")
	}
}
