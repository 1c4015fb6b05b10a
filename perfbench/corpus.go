package main

import (
	"fmt"
	"runtime"
	"time"

	"vrp"
	"vrp/internal/corpus"
	"vrp/internal/freq"
)

// corpusProg is one hand-written corpus program with its set-up oracle.
type corpusProg struct {
	cp     *corpus.Program
	oracle profileOracle
}

// setupCorpus compiles every corpus program and profiles it on its ref
// input with the interpreter. The profiles are the oracle; none of this
// is timed as part of an operation.
func setupCorpus(tr *tracer) ([]corpusProg, error) {
	var progs []corpusProg
	for _, cp := range corpus.All() {
		p, err := vrp.Compile(cp.Name+".mini", cp.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cp.Name, err)
		}
		s := tr.start("interp", tr.newOp(), -1)
		prof, err := p.Run(cp.Ref)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("%s ref run: %w", cp.Name, err)
		}
		progs = append(progs, corpusProg{cp: cp, oracle: newProfileOracle(p.IR, prof)})
	}
	return progs, nil
}

// runCorpusPredict runs all corpus programs in a fixed order, round after
// round: one operation is one program through Compile → Analyze →
// Predictions → Frequencies. Traced runs call the layers one by one and
// alternate traced rounds with untraced ones, so the same run yields the
// cost of the spans alone.
func runCorpusPredict(rc runConfig) (*report, error) {
	rep := newReport()
	tr := rc.tracer()
	progs, setupS, err := repeatSetup(func() ([]corpusProg, error) { return setupCorpus(tr) }, nil)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setupS)

	// Round 0 is the reference every later round must reproduce, and the
	// warm-up: it is not timed. Only its predictions are kept, so the
	// heap the timed rounds measure holds no earlier analysis.
	refPreds := make([][]pred, len(progs))
	refs := make([]reference, len(progs))
	roundInstrs := 0
	for i, p := range progs {
		out, err := runFacade(p.cp.Name+".mini", p.cp.Source, rc.workers)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.cp.Name, err)
		}
		refPreds[i], refs[i] = out.preds, referenceOf(out)
		roundInstrs += out.instrs
	}

	var (
		lat              []float64 // per-program latency, untraced ops
		roundRate        []float64 // kinstrs/s of each untraced round
		roundReq         []float64
		roundPeak        []float64 // heap peak of each untraced round, MiB
		tracedRound      []float64 // seconds per round, by kind
		plainRound       []float64
		layers           layerTotals
		tracedOps, rtOps int
		rtDelta          runtimeCounters
		rtInstrs         int
	)
	heap := startHeapSampler()
	deadline := time.Now().Add(rc.seconds)
	for round := 0; time.Now().Before(deadline); round++ {
		traced := tr != nil && round%2 == 0
		var busy time.Duration
		// Every round starts from a collected heap, so its heap peak
		// does not depend on where the previous round left the GC.
		runtime.GC()
		heap.lap()
		rt0 := readRuntime()
		for i, p := range progs {
			name := p.cp.Name + ".mini"
			var out *outcome
			var err error
			t0 := time.Now()
			if traced {
				op := tr.newOp()
				root := tr.start("program", op, -1)
				fr0, fs0 := freq.Stats()
				out, err = runLayers(name, p.cp.Source, rc.workers, tr, op, root)
				tr.end(root)
				if err == nil {
					layers.addOutcome(out, fr0, fs0)
				}
			} else if tr != nil {
				out, err = runLayers(name, p.cp.Source, rc.workers, nil, 0, -1)
			} else {
				out, err = runFacade(name, p.cp.Source, rc.workers)
			}
			d := time.Since(t0)
			busy += d
			rep.attempted++
			if err != nil {
				rep.fail("%s: %v", p.cp.Name, err)
				continue
			}
			if !traced {
				lat = append(lat, ms(d))
			}
			checkCorpusOp(rep, p, out, refs[i])
		}
		if traced {
			tracedOps += len(progs)
			tracedRound = append(tracedRound, busy.Seconds())
		} else {
			roundPeak = append(roundPeak, heap.lap())
			rtDelta = rtDelta.add(readRuntime().sub(rt0))
			rtOps += len(progs)
			rtInstrs += roundInstrs
			plainRound = append(plainRound, busy.Seconds())
			roundRate = append(roundRate, float64(roundInstrs)/1e3/busy.Seconds())
			roundReq = append(roundReq, float64(len(progs))/busy.Seconds())
		}
	}
	heap.close()
	rep.set("peak_heap_mb", median(roundPeak))

	// Accuracy and range share come from the reference round: every
	// timed round reproduced its predictions, so they hold for all of them.
	werr := map[corpus.Suite][]float64{}
	var all []float64
	ranged, branches := 0, 0
	for i, p := range progs {
		ranged += rangeCount(refPreds[i])
		branches += len(refPreds[i])
		if w, ok := p.oracle.werr(refPreds[i]); ok {
			werr[p.cp.Suite] = append(werr[p.cp.Suite], w)
			all = append(all, w)
		}
	}
	rep.set("range_share", float64(ranged)/float64(branches))
	rep.set("vrp_werr_pp", mean(all))
	rep.note("vrp_werr_int_pp %.4f pp (%d programs)", mean(werr[corpus.IntSuite]), len(werr[corpus.IntSuite]))
	rep.note("vrp_werr_fp_pp %.4f pp (%d programs)", mean(werr[corpus.FPSuite]), len(werr[corpus.FPSuite]))

	if tr == nil {
		setWindowedLatency(rep, lat, latencyWindowRounds*len(progs))
		rep.set("kinstrs_per_s", median(roundRate))
		rep.set("requests_per_s", median(roundReq))
		return rep, nil
	}

	// The vrange counters need telemetry, which the timed rounds run
	// without: one extra telemetry round reads them.
	var tel telemetryTotals
	for i, p := range progs {
		out, err := runFacade(p.cp.Name+".mini", p.cp.Source, rc.workers, vrp.WithTelemetry())
		if err != nil {
			return nil, fmt.Errorf("%s telemetry run: %w", p.cp.Name, err)
		}
		if m := refs[i].mismatch(out); m != "" {
			rep.fail("%s: telemetry run: %s", p.cp.Name, m)
		}
		tel.add(out.res.Telemetry)
	}
	layers.setMetrics(rep, tr.snapshot(), tracedOps, setupRuns)
	tel.setMetrics(rep, len(progs))
	rep.setRuntime(rtDelta, rtOps, rtInstrs)
	rep.setOverhead(median(tracedRound), median(plainRound))
	return rep, writeTrace(rc, tr)
}

// checkCorpusOp holds one operation's output to the oracle: no
// range-certain prediction may be contradicted by the ref profile, and
// the output must reproduce the reference round's.
func checkCorpusOp(rep *report, p corpusProg, out *outcome, ref reference) {
	if bad := p.oracle.contradictions(out.preds); len(bad) > 0 {
		rep.fail("%s: %d contradicted certain predictions, first: %s", p.cp.Name, len(bad), bad[0])
		return
	}
	if m := ref.mismatch(out); m != "" {
		rep.fail("%s: %s", p.cp.Name, m)
	}
}

// latencyWindowRounds rounds make one latency window: 129 operations, so
// 12 lie beyond the window's p90.
const latencyWindowRounds = 3

// setWindowedLatency reports, for p50 and p90, the median over windows of
// size operations of the window's quantile. The corpus is a fixed mix, so
// every window holds the same programs; a stretch of the run in which the
// host steals CPU then moves only the windows it covers, not the result.
func setWindowedLatency(rep *report, lat []float64, size int) {
	var p50, p90 []float64
	for lo := 0; lo+size <= len(lat); lo += size {
		p50 = append(p50, median(lat[lo:lo+size]))
		p90 = append(p90, quantile(lat[lo:lo+size], 0.9))
	}
	if len(p50) == 0 { // a run too short for one window
		rep.setLatency(lat)
		return
	}
	rep.set("latency_p50_ms", median(p50))
	rep.set("latency_p90_ms", median(p90))
	rep.note("latency over %d operations: median over %d windows of %d (%d beyond p90 in each)",
		len(lat), len(p50), size, size/10)
}
