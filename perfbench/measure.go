package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// heapSampler tracks the peak of the Go heap's live-and-unswept object
// bytes while a workload runs, reading runtime/metrics (no stop-the-world)
// every few milliseconds. Peaks are taken per lap, so a workload can
// report the median of its per-operation (or per-interval) peaks, which
// is far steadier than one maximum that depends on where GC cycles fell.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			v := sample[0].Value.Uint64()
			for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// lap returns the peak in MiB since the previous lap and starts a new one.
func (h *heapSampler) lap() float64 {
	sample := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(sample)
	return float64(max(h.peak.Swap(0), sample[0].Value.Uint64())) / (1 << 20)
}

// close stops the sampler and waits for it to exit.
func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// runtimeCounters reads the process-wide allocation and GC counters.
type runtimeCounters struct{ allocs, gcs uint64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounters{allocs: s[0].Value.Uint64(), gcs: s[1].Value.Uint64()}
}

func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{allocs: c.allocs - o.allocs, gcs: c.gcs - o.gcs}
}

func (c runtimeCounters) add(o runtimeCounters) runtimeCounters {
	return runtimeCounters{allocs: c.allocs + o.allocs, gcs: c.gcs + o.gcs}
}

// setupRuns is how many times a workload sets up; setup_s is the median.
const setupRuns = 5

// repeatSetup runs fn setupRuns times and returns the last result and the
// median wall time. Every result but the last is handed to discard. Each
// set-up starts from a collected heap, so none pays for collecting the
// garbage of the one before.
func repeatSetup[T any](fn func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := fn()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i > 0 && discard != nil {
			discard(last)
		}
		last = v
	}
	return last, median(secs), nil
}

// splitmix64 derives well-mixed values from the benchmark seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
