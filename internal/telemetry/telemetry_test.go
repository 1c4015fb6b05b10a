package telemetry

import (
	"reflect"
	"testing"
)

// TestDisabledRunMetricsZeroAlloc pins the zero-cost contract of the
// disabled path: every recording method the engine calls on its hot path
// must be a no-op on a nil receiver and must not allocate.
func TestDisabledRunMetricsZeroAlloc(t *testing.T) {
	var m *RunMetrics // telemetry disabled
	allocs := testing.AllocsPerRun(1000, func() {
		m.PushFlow(3)
		m.PushSSA(7)
		m.PhiMerge()
		m.Widen()
		m.AddWidens(5)
		m.Assert()
		m.PhiHull()
		m.AssertTighten()
	})
	if allocs != 0 {
		t.Fatalf("disabled-path telemetry allocated %.1f per run, want 0", allocs)
	}
}

func TestHistogramClamp(t *testing.T) {
	h := NewHistogram("h", "0", "1", "2+")
	h.Add(-5)
	h.Add(0)
	h.Add(1)
	h.Add(2)
	h.Add(99)
	if got := h.Counts[0]; got != 2 {
		t.Errorf("bucket 0 = %d, want 2 (negative clamps down)", got)
	}
	if got := h.Counts[2]; got != 2 {
		t.Errorf("bucket 2+ = %d, want 2 (overflow clamps up)", got)
	}
	if h.Total() != 5 {
		t.Errorf("Total = %d, want 5", h.Total())
	}
}

// fillRecorder simulates a two-pass run over three functions, with the
// order in which the second and third write their slots varying.
func fillRecorder(swap bool) *Recorder {
	r := New()
	r.Begin([]string{"main", "f", "g"})
	order := []int{1, 2}
	if swap {
		order = []int{2, 1}
	}
	for pass := 0; pass < 2; pass++ {
		p0 := r.Now()
		m := r.StartRun()
		m.PushFlow(1)
		m.PushSSA(2)
		m.PhiMerge()
		r.EndRun(0, m, "ok")
		for _, fi := range order {
			if pass == 1 {
				r.Skip(fi)
				continue
			}
			m := r.StartRun()
			m.PushFlow(fi)
			m.Widen()
			r.EndRun(fi, m, "ok")
		}
		r.EndPass(p0)
	}
	return r
}

// TestSnapshotDeterministicOrder checks that the flattened snapshot is
// identical (after Canon) no matter in which order the per-function slots
// were written.
func TestSnapshotDeterministicOrder(t *testing.T) {
	a := fillRecorder(false).Snapshot().Canon()
	b := fillRecorder(true).Snapshot().Canon()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ:\n%v\nvs\n%v", a, b)
	}
	if a.Totals.Runs != 4 || a.Totals.Skips != 2 {
		t.Errorf("totals = %d runs, %d skips; want 4 runs, 2 skips", a.Totals.Runs, a.Totals.Skips)
	}
	if a.Passes != 2 {
		t.Errorf("Passes = %d, want 2", a.Passes)
	}
}

func TestRunMetricsPeaks(t *testing.T) {
	m := &RunMetrics{}
	m.PushFlow(2)
	m.PushFlow(5)
	m.PushFlow(1)
	if m.FlowPeak != 5 || m.FlowPushes != 3 {
		t.Errorf("FlowPeak=%d FlowPushes=%d, want 5 and 3", m.FlowPeak, m.FlowPushes)
	}
	var fm FuncMetrics
	fm.fold(m)
	m2 := &RunMetrics{}
	m2.PushFlow(3)
	fm.fold(m2)
	if fm.FlowPeak != 5 || fm.Runs != 2 || fm.FlowPushes != 4 {
		t.Errorf("fold: peak=%d runs=%d pushes=%d, want 5, 2, 4", fm.FlowPeak, fm.Runs, fm.FlowPushes)
	}
}
