package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Request-scoped span tracing. A Trace is a tree of timed spans covering
// one request end to end: the server opens the root over the whole
// handler, hangs one phase span per pipeline stage off it (validate,
// cache probe, parse, SSA, render), and the analysis driver fills the
// "vrp" phase with callgraph/pass/engine/splice children, plus
// zero-duration skip and diag marks — so a single artifact answers
// "which phase ate the time" for any request. It is the only timeline:
// vrpc -trace, vrpd and vrpbench all export this tree.
//
// The same two properties that shape RunMetrics shape Trace:
//
//   - Disabled tracing costs zero allocations on the analyze hot path.
//     The driver holds a *Trace that is nil when tracing is off; every
//     method nil-checks its receiver (TestNilTraceZeroAlloc pins this),
//     so an untraced analysis compiles down to compare-and-skip.
//   - Enabled tracing never perturbs analysis results. Spans carry only
//     wall-clock timings and small label payloads; nothing in the lattice
//     reads them back. Span *timings* are inherently nondeterministic,
//     so tests assert on the tree structure and names, never on
//     durations.
//
// A Trace is safe for concurrent use: Start/End/Annotate/Spans take an
// internal mutex, once per span — per engine run, not per worklist
// step — which keeps the enabled cost far off the hot path. Spans
// reference parents by index, so the backing slice may grow freely.

// SpanID names one span within its Trace. NoSpan is the nil parent (the
// root) and the id returned by every method of a nil Trace.
type SpanID int32

// NoSpan is the absent span: the parent of a root span, and the result
// of starting a span on a disabled (nil) Trace.
const NoSpan SpanID = -1

// Span is one node of the tree. Start and Dur are nanoseconds relative
// to the Trace's creation.
type Span struct {
	Name   string            `json:"name"`
	Cat    string            `json:"cat"`
	Parent SpanID            `json:"parent"`
	Start  int64             `json:"start_ns"`
	Dur    int64             `json:"dur_ns"`
	Args   map[string]string `json:"args,omitempty"`
}

// Trace collects one request's span tree. A nil *Trace is the disabled
// state: every method is a no-op returning NoSpan.
type Trace struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTrace returns an enabled empty trace anchored at the current time.
func NewTrace() *Trace {
	return &Trace{t0: time.Now(), spans: make([]Span, 0, 32)}
}

// Now returns nanoseconds since the trace began (0 on a nil Trace).
func (t *Trace) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// Start opens a span under parent (NoSpan for a root) and returns its
// id. An open span has Dur < 0 until End.
func (t *Trace) Start(parent SpanID, cat, name string) SpanID {
	return t.add(parent, cat, name, -1)
}

// Mark records a zero-duration span: a point on the timeline, such as a
// skipped function or a diagnostic, placed in the tree where it happened.
func (t *Trace) Mark(parent SpanID, cat, name string) SpanID {
	return t.add(parent, cat, name, 0)
}

// add appends a span starting now with the given duration (-1: open).
func (t *Trace) add(parent SpanID, cat, name string, dur int64) SpanID {
	if t == nil {
		return NoSpan
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := SpanID(len(t.spans))
	t.spans = append(t.spans, Span{
		Name:   name,
		Cat:    cat,
		Parent: parent,
		Start:  now,
		Dur:    dur,
	})
	t.mu.Unlock()
	return id
}

// End closes the span. Ending NoSpan (or ending twice) is a no-op, so
// callers can defer End unconditionally.
func (t *Trace) End(id SpanID) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	if int(id) < len(t.spans) && t.spans[id].Dur < 0 {
		t.spans[id].Dur = now - t.spans[id].Start
	}
	t.mu.Unlock()
}

// Annotate attaches one key=value label to the span.
func (t *Trace) Annotate(id SpanID, key, value string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	if int(id) < len(t.spans) {
		sp := &t.spans[id]
		if sp.Args == nil {
			sp.Args = make(map[string]string, 2)
		}
		sp.Args[key] = value
	}
	t.mu.Unlock()
}

// Spans returns a copy of the tree in creation order. Open spans report
// their duration as of the call, so a snapshot mid-request is coherent.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	for i := range out {
		if out[i].Dur < 0 {
			out[i].Dur = now - out[i].Start
		}
		if out[i].Args != nil {
			args := make(map[string]string, len(out[i].Args))
			for k, v := range out[i].Args {
				args[k] = v
			}
			out[i].Args = args
		}
	}
	return out
}

// PhaseDurations sums the direct children of root by name: the request's
// phase breakdown. Children sharing a name (several "splice" spans, say)
// accumulate into one figure.
func PhaseDurations(spans []Span, root SpanID) map[string]int64 {
	out := make(map[string]int64)
	for _, sp := range spans {
		if sp.Parent == root {
			out[sp.Name] += sp.Dur
		}
	}
	return out
}

// chromeEvent is one trace_event record. ts and dur are microseconds.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteSpanChromeTrace serializes a span tree as Chrome trace_event JSON
// (the JSON Object Format consumed by chrome://tracing and Perfetto,
// https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// The tree renders on one thread row named "request"; spans are complete
// ("X") events whose nesting Perfetto reconstructs from time containment.
func WriteSpanChromeTrace(w io.Writer, spans []Span) error {
	const pid = 1
	out := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(spans)+1),
		DisplayTimeUnit: "ms",
	}
	if len(spans) > 0 {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid,
			Args: map[string]string{"name": "request"},
		})
	}

	for _, sp := range spans {
		dur := sp.Dur
		if dur < 0 {
			dur = 0
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: sp.Name,
			Cat:  sp.Cat,
			Ph:   "X",
			Ts:   float64(sp.Start) / 1e3,
			Dur:  float64(dur) / 1e3,
			Pid:  pid,
			Args: sp.Args,
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&out)
}
