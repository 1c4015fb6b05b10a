package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"testing"
)

// TestNilTraceZeroAlloc pins the disabled-tracing contract: every method
// of a nil *Trace is a no-op costing zero allocations, so the driver can
// hold one unconditionally without perturbing the analyze hot path.
func TestNilTraceZeroAlloc(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(100, func() {
		id := tr.Start(NoSpan, "phase", "vrp")
		id2 := tr.Start(id, "engine", "kernel")
		tr.Annotate(id2, "outcome", "ok")
		tr.Mark(id, "skip", "helper")
		_ = tr.Now()
		tr.End(id2)
		tr.End(id)
		_ = tr.Spans()
	})
	if allocs != 0 {
		t.Fatalf("nil Trace allocated %v times per run, want 0", allocs)
	}
	if id := tr.Start(NoSpan, "a", "b"); id != NoSpan {
		t.Fatalf("nil Trace Start = %d, want NoSpan", id)
	}
}

// TestSpanTree exercises the structural contract: parent linkage,
// idempotent End, open-span snapshots, zero-duration marks, and Args
// copying.
func TestSpanTree(t *testing.T) {
	tr := NewTrace()
	root := tr.Start(NoSpan, "request", "POST /v1/analyze")
	vrp := tr.Start(root, "phase", "vrp")
	eng := tr.Start(vrp, "engine", "kernel")
	tr.Annotate(eng, "outcome", "ok")
	child := tr.Start(eng, "splice", "helper")
	tr.End(child)
	tr.End(eng)

	// Snapshot while root and vrp are still open.
	open := tr.Spans()
	if len(open) != 4 {
		t.Fatalf("got %d spans, want 4", len(open))
	}
	if open[0].Dur < 0 || open[1].Dur < 0 {
		t.Errorf("open spans must report elapsed duration in snapshots, got %d and %d",
			open[0].Dur, open[1].Dur)
	}

	mark := tr.Mark(vrp, "diag", "non-convergence")
	tr.End(mark) // a mark is already closed
	tr.End(vrp)
	tr.End(root)
	tr.End(root) // idempotent: second End must not change the duration
	spans := tr.Spans()
	if m := spans[mark]; m.Parent != vrp || m.Dur != 0 {
		t.Errorf("mark = parent %d dur %d, want parent %d dur 0", m.Parent, m.Dur, vrp)
	}

	if spans[0].Parent != NoSpan || spans[1].Parent != root || spans[2].Parent != vrp || spans[3].Parent != eng {
		t.Errorf("parent chain wrong: %d %d %d %d",
			spans[0].Parent, spans[1].Parent, spans[2].Parent, spans[3].Parent)
	}
	if got := spans[2].Args["outcome"]; got != "ok" {
		t.Errorf("Annotate lost: Args = %v", spans[2].Args)
	}
	for i, sp := range spans {
		if sp.Dur < 0 {
			t.Errorf("span %d (%s) still open after End", i, sp.Name)
		}
	}

	// The snapshot is a deep copy: mutating it must not leak back.
	spans[2].Args["outcome"] = "mutated"
	if got := tr.Spans()[2].Args["outcome"]; got != "ok" {
		t.Errorf("snapshot mutation leaked into the trace: %q", got)
	}
}

// TestSpanConcurrentStart drives Start/End/Annotate from concurrent
// goroutines; run under -race this pins the locking discipline.
func TestSpanConcurrentStart(t *testing.T) {
	tr := NewTrace()
	root := tr.Start(NoSpan, "request", "r")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := tr.Start(root, "engine", "f")
				tr.Annotate(id, "w", "x")
				tr.End(id)
				_ = tr.Spans()
			}
		}(w)
	}
	wg.Wait()
	tr.End(root)
	if got := len(tr.Spans()); got != 1+8*50 {
		t.Fatalf("got %d spans, want %d", got, 1+8*50)
	}
}

// TestPhaseDurations: direct children of the root sum by name; nested
// grandchildren and other roots' children are excluded.
func TestPhaseDurations(t *testing.T) {
	spans := []Span{
		{Name: "root", Parent: NoSpan, Dur: 100},
		{Name: "parse", Parent: 0, Dur: 10},
		{Name: "vrp", Parent: 0, Dur: 60},
		{Name: "engine", Parent: 2, Dur: 55}, // child of vrp, not of root
		{Name: "splice", Parent: 2, Dur: 2},
		{Name: "render", Parent: 0, Dur: 5},
		{Name: "render", Parent: 0, Dur: 3}, // same-name children accumulate
	}
	got := PhaseDurations(spans, 0)
	want := map[string]int64{"parse": 10, "vrp": 60, "render": 8}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("phase %q = %d, want %d", k, got[k], v)
		}
	}
}

// errWriter is a sink whose every write fails.
type errWriter struct{ err error }

func (w errWriter) Write([]byte) (int, error) { return 0, w.err }

// TestWriteSpanChromeTraceGolden pins the span-tree Chrome export: one
// "request" thread_name metadata row, "X" complete events with ns→µs conversion, dur omitted on zero-duration
// marks, and args passed through. It also checks that an empty tree
// still writes a loadable trace and that a failing sink's error reaches
// the caller.
func TestWriteSpanChromeTraceGolden(t *testing.T) {
	spans := []Span{
		{Name: "POST /v1/analyze", Cat: "request", Parent: NoSpan, Start: 0, Dur: 900000},
		{Name: "vrp", Cat: "phase", Parent: 0, Start: 100000, Dur: 700000},
		{Name: "kernel", Cat: "engine", Parent: 1, Start: 150000, Dur: 500000,
			Args: map[string]string{"outcome": "ok"}},
		{Name: "helper", Cat: "skip", Parent: 1, Start: 650000},
	}
	var buf bytes.Buffer
	if err := WriteSpanChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	const golden = `{
 "traceEvents": [
  {
   "name": "thread_name",
   "ph": "M",
   "ts": 0,
   "pid": 1,
   "tid": 0,
   "args": {
    "name": "request"
   }
  },
  {
   "name": "POST /v1/analyze",
   "cat": "request",
   "ph": "X",
   "ts": 0,
   "dur": 900,
   "pid": 1,
   "tid": 0
  },
  {
   "name": "vrp",
   "cat": "phase",
   "ph": "X",
   "ts": 100,
   "dur": 700,
   "pid": 1,
   "tid": 0
  },
  {
   "name": "kernel",
   "cat": "engine",
   "ph": "X",
   "ts": 150,
   "dur": 500,
   "pid": 1,
   "tid": 0,
   "args": {
    "outcome": "ok"
   }
  },
  {
   "name": "helper",
   "cat": "skip",
   "ph": "X",
   "ts": 650,
   "pid": 1,
   "tid": 0
  }
 ],
 "displayTimeUnit": "ms"
}
`
	if got := buf.String(); got != golden {
		t.Errorf("span trace mismatch:\ngot:\n%s\nwant:\n%s", got, golden)
	}

	// And it must stay parseable as generic trace_event JSON.
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("emitted trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) != 5 {
		t.Fatalf("got %d trace events, want 5", len(parsed.TraceEvents))
	}

	// An empty tree (a request traced before any span opened) is still a
	// loadable trace: an empty traceEvents array, not null.
	buf.Reset()
	if err := WriteSpanChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "{\n \"traceEvents\": [],\n \"displayTimeUnit\": \"ms\"\n}\n"; got != want {
		t.Errorf("empty trace = %q, want %q", got, want)
	}

	// json.Encoder buffers the whole document into one Write, so a sink
	// that fails at all fails that write; the error must surface.
	sinkErr := errors.New("disk full")
	if err := WriteSpanChromeTrace(errWriter{sinkErr}, spans); !errors.Is(err, sinkErr) {
		t.Errorf("failing sink: err = %v, want %v", err, sinkErr)
	}
}
