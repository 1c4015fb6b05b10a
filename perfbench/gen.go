package main

import (
	"fmt"
	"runtime"
	"time"

	"vrp"
	"vrp/internal/freq"
	"vrp/internal/genprog"
)

// genInput is gen-100k's generated program and its oracle.
type genInput struct {
	src    string
	oracle profileOracle
}

// setupGen generates the seed's 100k-instruction program and profiles it
// with the interpreter on a seed-derived input.
func setupGen(seed uint64, tr *tracer) (genInput, error) {
	cfg, _ := genprog.Preset("100k")
	cfg.Seed = splitmix64(seed)
	src := genprog.Source(cfg)
	p, err := vrp.Compile("gen-100k.mini", src)
	if err != nil {
		return genInput{}, err
	}
	s := tr.start("interp", tr.newOp(), -1)
	prof, err := p.Run([]int64{genInputValue(seed)})
	tr.end(s)
	if err != nil {
		return genInput{}, fmt.Errorf("interpreter run: %w", err)
	}
	return genInput{src: src, oracle: newProfileOracle(p.IR, prof)}, nil
}

// genInputValue is the value main reads with input().
func genInputValue(seed uint64) int64 { return int64(splitmix64(seed^0x1ab5) % 1000) }

// runGen100k compiles and analyzes the generated program from scratch,
// again and again: one operation is one Compile → Analyze → Predictions
// → Frequencies through the facade. Every operation must reproduce the
// first one's output. Traced runs call the layers one by one and
// alternate traced operations with untraced ones, so the same run yields
// the cost of the spans alone; a facade analysis with telemetry then
// must reproduce their output too.
func runGen100k(rc runConfig) (*report, error) {
	rep := newReport()
	tr := rc.tracer()
	in, setupS, err := repeatSetup(func() (genInput, error) { return setupGen(rc.seed, tr) }, nil)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setupS)

	var (
		refPreds         []pred // the first operation's predictions
		refInstrs        int
		ref              reference
		lat, rate, reqs  []float64
		peak             []float64 // heap peak of each untraced operation, MiB
		tracedLat, plain []float64
		layers           layerTotals
		tracedOps, rtOps int
		rtDelta          runtimeCounters
		rtInstrs         int
	)
	heap := startHeapSampler()
	minOps := 1 // traced runs need one operation of each kind
	if tr != nil {
		minOps = 2
	}
	deadline := time.Now().Add(rc.seconds)
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		traced := tr != nil && i%2 == 0
		var out *outcome
		var err error
		// Every operation starts from a collected heap, so its heap peak
		// does not depend on where the previous one left the GC.
		runtime.GC()
		heap.lap()
		rt0 := readRuntime()
		t0 := time.Now()
		if traced {
			op := tr.newOp()
			root := tr.start("analysis", op, -1)
			fr0, fs0 := freq.Stats()
			out, err = runLayers("gen-100k.mini", in.src, rc.workers, tr, op, root)
			tr.end(root)
			if err == nil {
				layers.addOutcome(out, fr0, fs0)
			}
		} else if tr != nil {
			out, err = runLayers("gen-100k.mini", in.src, rc.workers, nil, 0, -1)
		} else {
			out, err = runFacade("gen-100k.mini", in.src, rc.workers)
		}
		d := time.Since(t0)
		rep.attempted++
		if err != nil {
			rep.fail("operation %d: %v", i, err)
			continue
		}
		if traced {
			tracedOps++
			tracedLat = append(tracedLat, ms(d))
		} else {
			peak = append(peak, heap.lap())
			rtDelta = rtDelta.add(readRuntime().sub(rt0))
			rtOps++
			rtInstrs += out.instrs
			plain = append(plain, ms(d))
			lat = append(lat, ms(d))
			rate = append(rate, float64(out.instrs)/1e3/d.Seconds())
			reqs = append(reqs, 1/d.Seconds())
		}
		if refPreds == nil {
			// Keep only the predictions: a retained analysis would sit in
			// every later operation's heap peak.
			refPreds, ref, refInstrs = out.preds, referenceOf(out), out.instrs
		}
		checkGenOp(rep, i, in.oracle, out, ref)
	}
	heap.close()
	if len(peak) > 0 {
		rep.set("peak_heap_mb", median(peak))
	}
	if refPreds == nil {
		return nil, fmt.Errorf("no operation succeeded: %v", rep.failures)
	}
	rep.set("range_share", float64(rangeCount(refPreds))/float64(len(refPreds)))
	rep.note("range-predicted branches %d of %d, %d IR instructions", rangeCount(refPreds), len(refPreds), refInstrs)
	w, ok := in.oracle.werr(refPreds)
	if !ok {
		return nil, fmt.Errorf("no predicted branch executed on the interpreter")
	}
	rep.set("vrp_werr_pp", w)

	if tr == nil {
		rep.note("operation latencies (ms): %.1f", lat)
		rep.setLatency(lat)
		rep.set("kinstrs_per_s", median(rate))
		rep.set("requests_per_s", median(reqs))
		return rep, nil
	}

	// One telemetry analysis reads the vrange counters.
	out, err := runFacade("gen-100k.mini", in.src, rc.workers, vrp.WithTelemetry())
	if err != nil {
		return nil, fmt.Errorf("telemetry run: %w", err)
	}
	rep.attempted++
	checkGenOp(rep, -1, in.oracle, out, ref)
	var tel telemetryTotals
	tel.add(out.res.Telemetry)
	tel.setMetrics(rep, 1)
	layers.setMetrics(rep, tr.snapshot(), tracedOps, setupRuns)
	rep.setRuntime(rtDelta, rtOps, rtInstrs)
	rep.setOverhead(median(tracedLat), median(plain))
	return rep, writeTrace(rc, tr)
}

// checkGenOp holds one analysis to its oracles: the first operation's
// output reproduced, and no range-certain prediction the interpreter
// contradicts.
func checkGenOp(rep *report, i int, o profileOracle, out *outcome, ref reference) {
	if m := ref.mismatch(out); m != "" {
		rep.fail("operation %d: %s", i, m)
		return
	}
	if bad := o.contradictions(out.preds); len(bad) > 0 {
		rep.fail("operation %d: %d contradicted certain predictions, first: %s", i, len(bad), bad[0])
	}
}
