package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"vrp"
	"vrp/internal/corpus"
	"vrp/internal/genprog"
	"vrp/internal/ir"
	"vrp/internal/telemetry"
	corevrp "vrp/internal/vrp"
)

// The perf ledger (vrpbench -perf, BENCH_perf.json) is the one
// performance harness: the full sequential compile+analyze pipeline on
// merged corpus programs and generated tiers, sampled in interleaved
// rounds and summarized as medians with their spread. Allocations per
// instruction repeat almost exactly from run to run, so they are gated
// against the committed ledger; wall time on a shared box does not, so
// it gates only the near-linear scaling contract between two tiers of
// the same run.

// PerfSchema identifies the BENCH_perf.json format (EXPERIMENTS.md).
const PerfSchema = "vrp-perf/v2"

// perfRounds is the number of timed rounds. Each visits every point once,
// after one untimed warm-up round.
const perfRounds = 7

const (
	// perfAllocSlack is how far a point's median allocs/instr may rise
	// above its baseline row, as a fraction.
	perfAllocSlack = 0.02
	// perfScaleFactor bounds gen-100k's median ns/instr against gen-10k's.
	perfScaleFactor = 2.0
)

// perfMergedSizes are the merged corpus prefixes the ledger measures.
var perfMergedSizes = []int{1, 4, 8, 31}

// PerfPoint is one program's row of the perf ledger.
type PerfPoint struct {
	Name   string `json:"name"`
	Instrs int    `json:"instrs"`
	Funcs  int    `json:"funcs"`

	// NsPerInstr is the median wall time of one compile+analyze divided
	// by Instrs; NsPerInstrIQR is the interquartile range of the samples.
	NsPerInstr    float64 `json:"ns_per_instr"`
	NsPerInstrIQR float64 `json:"ns_per_instr_iqr"`
	// PhaseNsPerInstr splits the time by root phase span: "parse"
	// (lexing, parsing, semantic checks), "ssa" (IR lowering and SSA
	// conversion) and "vrp" (the whole interprocedural analysis), each
	// the median over the samples.
	PhaseNsPerInstr map[string]float64 `json:"phase_ns_per_instr"`

	// Median heap allocation per instruction (MemStats deltas of one
	// sample), and the HeapAlloc high-water mark over all samples
	// (polled, plus one post-run sample, GC-fenced).
	AllocsPerInstr float64 `json:"allocs_per_instr"`
	BytesPerInstr  float64 `json:"bytes_per_instr"`
	PeakHeapBytes  uint64  `json:"peak_heap_bytes"`

	Passes    int  `json:"passes"`
	Converged bool `json:"converged"`
}

// PerfReport is the machine-readable content of BENCH_perf.json.
type PerfReport struct {
	Schema string `json:"schema"`
	// GoVersion is the toolchain that built the harness: allocation
	// counts depend on it, so a ledger gates runs of the same toolchain.
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Rounds     int         `json:"rounds"`
	Points     []PerfPoint `json:"points"`
}

// perfTarget is one ledger point. compile rebuilds the program from
// source on every sample, so each sample times the whole pipeline.
type perfTarget struct {
	name    string
	compile func(tr *telemetry.Trace) (*ir.Program, error)
}

func perfTargets(tiers []genprog.Tier) []perfTarget {
	all := corpus.All()
	var ts []perfTarget
	for _, k := range perfMergedSizes {
		progs := all[:min(k, len(all))]
		ts = append(ts, perfTarget{fmt.Sprintf("merged-%d", len(progs)), func(tr *telemetry.Trace) (*ir.Program, error) {
			return mergedProgram(progs, tr)
		}})
	}
	for _, t := range tiers {
		name, src := t.Name, genprog.Source(t.Cfg)
		ts = append(ts, perfTarget{name, func(tr *telemetry.Trace) (*ir.Program, error) {
			p, err := vrp.CompileWith(name+".mini", src, vrp.CompileOptions{Trace: tr, TraceParent: telemetry.NoSpan})
			if err != nil {
				return nil, err
			}
			return p.IR, nil
		}})
	}
	return ts
}

// perfSample is the cost of one compile+analyze.
type perfSample struct {
	instrs, funcs int
	ns            int64
	phaseNs       map[string]int64
	allocs, bytes int64
	peak          uint64
}

// run compiles and analyzes the target once. A GC fence keeps earlier
// garbage out of the MemStats deltas and the peak.
func (t perfTarget) run() (perfSample, *corevrp.Result, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tr := telemetry.NewTrace()
	hw := watchHeap(25 * time.Millisecond)
	start := time.Now()
	p, err := t.compile(tr)
	var res *corevrp.Result
	if err == nil {
		sp := tr.Start(telemetry.NoSpan, "phase", "vrp")
		res, err = corevrp.Analyze(p, defaultEngineConfig(p))
		tr.End(sp)
	}
	ns := time.Since(start).Nanoseconds()
	peak := hw.close()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return perfSample{}, nil, fmt.Errorf("%s: %w", t.name, err)
	}
	s := perfSample{
		instrs:  p.NumInstrs(),
		funcs:   len(p.Funcs),
		ns:      ns,
		phaseNs: map[string]int64{},
		allocs:  int64(m1.Mallocs - m0.Mallocs),
		bytes:   int64(m1.TotalAlloc - m0.TotalAlloc),
		peak:    max(peak, m1.HeapAlloc),
	}
	// The pipeline phases are the root-level "phase" spans: "parse" and
	// "ssa" from each compilation, "vrp" around Analyze.
	for _, sp := range tr.Spans() {
		if sp.Cat == "phase" && sp.Parent == telemetry.NoSpan {
			s.phaseNs[sp.Name] += sp.Dur
		}
	}
	return s, res, nil
}

// Perf measures the merged corpus points and the given generated tiers.
// The warm-up round runs each point once for the structural columns
// (size, passes, convergence). The perfRounds timed
// rounds then visit every point in turn, so slow machine-state drift
// spreads over all points instead of landing on whichever ran during it.
func Perf(tiers []genprog.Tier) (*PerfReport, error) {
	targets := perfTargets(tiers)
	rep := &PerfReport{Schema: PerfSchema, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Rounds: perfRounds, Points: make([]PerfPoint, len(targets))}
	for i, t := range targets {
		s, res, err := t.run()
		if err != nil {
			return nil, err
		}
		rep.Points[i] = PerfPoint{Name: t.name, Instrs: s.instrs, Funcs: s.funcs,
			Passes: res.Stats.Passes, Converged: res.Stats.Converged}
	}
	type series struct {
		ns, allocs, bytes []float64
		phase             map[string][]float64
	}
	all := make([]series, len(targets))
	for r := 0; r < perfRounds; r++ {
		for i, t := range targets {
			s, _, err := t.run()
			if err != nil {
				return nil, err
			}
			n := float64(s.instrs)
			ser, pt := &all[i], &rep.Points[i]
			ser.ns = append(ser.ns, float64(s.ns)/n)
			ser.allocs = append(ser.allocs, float64(s.allocs)/n)
			ser.bytes = append(ser.bytes, float64(s.bytes)/n)
			if ser.phase == nil {
				ser.phase = map[string][]float64{}
			}
			for ph, d := range s.phaseNs {
				ser.phase[ph] = append(ser.phase[ph], float64(d)/n)
			}
			pt.PeakHeapBytes = max(pt.PeakHeapBytes, s.peak)
		}
	}
	for i := range rep.Points {
		ser, pt := &all[i], &rep.Points[i]
		q1, med, q3 := quartiles(ser.ns)
		pt.NsPerInstr, pt.NsPerInstrIQR = med, q3-q1
		_, pt.AllocsPerInstr, _ = quartiles(ser.allocs)
		_, pt.BytesPerInstr, _ = quartiles(ser.bytes)
		pt.PhaseNsPerInstr = map[string]float64{}
		for ph, xs := range ser.phase {
			_, pt.PhaseNsPerInstr[ph], _ = quartiles(xs)
		}
	}
	return rep, nil
}

// quartiles returns the first quartile, median and third quartile of xs,
// interpolating linearly between order statistics. It sorts xs in place;
// an empty xs yields zeros.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(xs)
	at := func(q float64) float64 {
		h := q * float64(len(xs)-1)
		lo := int(h)
		if lo+1 == len(xs) {
			return xs[lo]
		}
		return xs[lo] + (h-float64(lo))*(xs[lo+1]-xs[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// PerfGate compares a fresh ledger against the committed baseline and
// returns an error naming every breach: a point whose median allocs/instr
// exceeds its baseline row by more than perfAllocSlack (points new to the
// ledger have no baseline and are skipped), and the near-linear scaling
// contract — gen-100k's median ns/instr within perfScaleFactor× gen-10k's,
// which needs both tiers. Super-linear blowup between those two decades
// is the signature of an accidentally quadratic hot path.
func PerfGate(base, cur *PerfReport) error {
	baseBy := map[string]PerfPoint{}
	for _, p := range base.Points {
		baseBy[p.Name] = p
	}
	var fails []string
	curBy := map[string]PerfPoint{}
	for _, p := range cur.Points {
		curBy[p.Name] = p
		b, ok := baseBy[p.Name]
		if !ok {
			continue
		}
		if limit := b.AllocsPerInstr * (1 + perfAllocSlack); p.AllocsPerInstr > limit {
			fails = append(fails, fmt.Sprintf("%s: %.3f allocs/instr > baseline %.3f + %.0f%%",
				p.Name, p.AllocsPerInstr, b.AllocsPerInstr, 100*perfAllocSlack))
		}
	}
	small, okSmall := curBy["gen-10k"]
	big, okBig := curBy["gen-100k"]
	switch {
	case !okSmall || !okBig:
		fails = append(fails, "scale: the gate needs both the gen-10k and gen-100k points")
	case big.NsPerInstr > perfScaleFactor*small.NsPerInstr:
		fails = append(fails, fmt.Sprintf("scale: gen-100k %.1f ns/instr > %.0f× gen-10k %.1f ns/instr",
			big.NsPerInstr, perfScaleFactor, small.NsPerInstr))
	}
	if len(fails) > 0 && base.GoVersion != cur.GoVersion {
		fails = append(fails, fmt.Sprintf("note: the baseline was written by %s, this run is %s",
			base.GoVersion, cur.GoVersion))
	}
	if len(fails) > 0 {
		return fmt.Errorf("perf gate failed:\n  %s", strings.Join(fails, "\n  "))
	}
	return nil
}

// PrintPerf renders the ledger as the human-readable companion of the
// JSON artifact.
func PrintPerf(w io.Writer, rep *PerfReport) {
	fmt.Fprintf(w, "perf ledger (sequential compile+analyze, median of %d rounds, GOMAXPROCS %d):\n",
		rep.Rounds, rep.GOMAXPROCS)
	fmt.Fprintf(w, "  %-10s %8s %6s %10s %8s %8s %8s %10s %11s %12s %8s %6s %5s\n",
		"point", "instrs", "funcs", "ns/instr", "iqr", "parse", "ssa", "vrp",
		"allocs/in", "bytes/in", "peakMB", "passes", "conv")
	for _, p := range rep.Points {
		conv := "yes"
		if !p.Converged {
			conv = "NO"
		}
		fmt.Fprintf(w, "  %-10s %8d %6d %10.1f %8.1f %8.1f %8.1f %10.1f %11.2f %12.1f %8.1f %6d %5s\n",
			p.Name, p.Instrs, p.Funcs, p.NsPerInstr, p.NsPerInstrIQR,
			p.PhaseNsPerInstr["parse"], p.PhaseNsPerInstr["ssa"], p.PhaseNsPerInstr["vrp"],
			p.AllocsPerInstr, p.BytesPerInstr, float64(p.PeakHeapBytes)/(1<<20),
			p.Passes, conv)
	}
}

// heapWatcher samples runtime.MemStats.HeapAlloc on a fixed cadence and
// keeps the high-water mark. Polling is coarse on purpose: ReadMemStats
// stops the world, so a tight loop would perturb the very run it
// measures. The caller folds in its own post-run sample, which catches a
// peak the poller slept through at the end.
type heapWatcher struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap(every time.Duration) *heapWatcher {
	w := &heapWatcher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		var m runtime.MemStats
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&m)
				if m.HeapAlloc > w.peak {
					w.peak = m.HeapAlloc
				}
			}
		}
	}()
	return w
}

// close stops the poller and returns the high-water mark it saw.
func (w *heapWatcher) close() uint64 {
	close(w.stop)
	<-w.done
	return w.peak
}
