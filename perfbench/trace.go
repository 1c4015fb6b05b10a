package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (never inside the program under test).
type span struct {
	Name   string
	Op     int64 // the operation (program, analysis, request) the span belongs to
	Parent int   // index of the enclosing span, or -1 for an operation's root
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced state: every method is a no-op, so untraced operations pay
// one nil check per layer call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh per-operation id.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// start opens a span and returns its index for end and for children.
func (t *tracer) start(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover. Children may overlap each other
// (concurrent clients); their union is subtracted once.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] += s.End - s.Start - covered(spans, children[i], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of the child intervals clipped to
// [lo, hi].
func covered(spans []span, kids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if b < 0 {
			continue
		}
		a, b = max(a, lo), min(b, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	cur := iv{-1, -1}
	for _, v := range ivs {
		if v.a > cur.b {
			total += cur.b - cur.a
			cur = v
			continue
		}
		cur.b = max(cur.b, v.b)
	}
	return total + cur.b - cur.a
}

// writeChrome writes the spans as a Chrome trace (opens in Perfetto or
// chrome://tracing): one complete event per span, lane = operation id.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		evs = append(evs, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Op,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"span": i, "parent": s.Parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
