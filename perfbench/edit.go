package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vrp"
	"vrp/internal/freq"
	"vrp/internal/genprog"
	"vrp/internal/ir"
	"vrp/internal/server"
)

const (
	// editClients closed-loop clients each hold one loopback connection
	// and send the next request only after the previous reply.
	editClients = 2
	// Every editRepeatEvery-th request repeats an earlier edit exactly,
	// so it can be served from the response cache. The share is a chosen
	// traffic mix, not a measured one: it puts the response-cache path on
	// the measured path while leaving both latency_p50_ms and
	// latency_p90_ms on requests that miss the cache.
	editRepeatEvery = 8
	// Every editSampleEvery-th request, up to editMaxSamples, has its
	// body checked against a store-less, cache-less server.
	editSampleEvery = 25
	editMaxSamples  = 32
	// peak_heap_mb is the heap peak over the first editHeapWindow
	// replies. The server's per-function store grows with every distinct
	// edit, so a peak over a fixed amount of work is steadier than one
	// over a fixed time.
	editHeapWindow = 1000
)

// editReq is one edit of the base program: `y += delta;` in kernel f<k>.
type editReq struct {
	k     int
	delta int64
}

// editSchedule derives the request sequence from the seed: distinct
// one-function edits, with every editRepeatEvery-th request repeating
// one issued a few requests earlier (far enough back that, with
// editClients in flight, it has normally been answered).
func editSchedule(seed uint64, funcs, n int) []editReq {
	state := splitmix64(seed ^ 0xed17)
	next := func() uint64 { state = splitmix64(state); return state }
	seen := make(map[editReq]bool, n)
	sched := make([]editReq, n)
	for i := range sched {
		if i%editRepeatEvery == editRepeatEvery-1 {
			sched[i] = sched[max(0, i-2*editClients-int(next()%16))]
			continue
		}
		for {
			e := editReq{k: int(next() % uint64(funcs)), delta: int64(next()%1999) - 999}
			if e.delta != 0 && !seen[e] {
				seen[e] = true
				sched[i] = e
				break
			}
		}
	}
	return sched
}

// discardLogger drops vrpd's per-request log records.
func discardLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// editRig is an in-process vrpd serving on a loopback port, and the
// client that talks to it.
type editRig struct {
	srv    *server.Server
	served chan error
	client *http.Client
	url    string
}

func startRig(workers int) (*editRig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	r := &editRig{
		srv:    server.New(server.Config{Workers: workers, Logger: discardLogger()}),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     editClients,
			MaxIdleConnsPerHost: editClients,
			DisableCompression:  true,
		}},
		url: "http://" + ln.Addr().String(),
	}
	go func() { r.served <- r.srv.Serve(ln) }()
	return r, nil
}

// close drains the server and waits for Serve to return.
func (r *editRig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r.client.CloseIdleConnections()
	err := r.srv.Shutdown(ctx)
	if serr := <-r.served; err == nil {
		err = serr
	}
	return err
}

func (r *editRig) post(src string) (int, []byte, error) {
	resp, err := r.client.Post(r.url+"/v1/analyze", "text/plain", strings.NewReader(src))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// scrape reads /metrics into series → value, keyed by the series as
// printed (name plus any labels).
func (r *editRig) scrape() (map[string]float64, error) {
	resp, err := r.client.Get(r.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// editSetup is edit-stream's state after set-up.
type editSetup struct {
	rig    *editRig
	base   string
	instrs int
	sched  []editReq
}

// setupEdit starts the server and posts the base program once, so the
// response cache and the per-function store hold its results.
func setupEdit(rc runConfig) (*editSetup, error) {
	cfg := genprog.Default()
	base := genprog.Source(cfg)
	p, err := vrp.Compile("base.mini", base)
	if err != nil {
		return nil, err
	}
	rig, err := startRig(max(1, rc.workers/editClients))
	if err != nil {
		return nil, err
	}
	status, body, err := rig.post(base)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("base program: status %d: %s", status, body)
	}
	if err != nil {
		rig.close()
		return nil, err
	}
	n := int(rc.seconds.Seconds()*400) + 200
	return &editSetup{rig: rig, base: base, instrs: p.IR.NumInstrs(), sched: editSchedule(rc.seed, cfg.Funcs, n)}, nil
}

func (s *editSetup) source(i int) string {
	src, _ := genprog.EditFunc(s.base, s.sched[i].k, s.sched[i].delta)
	return src
}

// editResult is what one client saw for one request.
type editResult struct {
	done   bool
	status int
	err    error
	lat    time.Duration
	end    time.Duration // completion, since the loop started
	body   []byte        // sampled requests only
}

func sampled(i int) bool { return i%editSampleEvery == 0 && i/editSampleEvery < editMaxSamples }

// runEditStream drives the server with editClients closed-loop clients,
// each request a one-function edit of the base program.
func runEditStream(rc runConfig) (*report, error) {
	rep := newReport()
	tr := rc.tracer()
	st, setupS, err := repeatSetup(func() (*editSetup, error) { return setupEdit(rc) },
		func(s *editSetup) { s.rig.close() })
	if err != nil {
		return nil, err
	}
	defer st.rig.close()
	rep.set("setup_s", setupS)

	var before map[string]float64
	if tr != nil {
		if before, err = st.rig.scrape(); err != nil {
			return nil, fmt.Errorf("scrape: %w", err)
		}
	}
	fr0, fs0 := freq.Stats()
	rt0 := readRuntime()
	results := make([]editResult, len(st.sched))
	var next, completed atomic.Int64
	var heapAtWindow atomic.Pointer[float64]
	var wg sync.WaitGroup
	heap := startHeapSampler()
	start := time.Now()
	for c := 0; c < editClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(results) || time.Since(start) >= rc.seconds {
					return
				}
				src := st.source(i)
				sp := tr.start("request", tr.newOp(), -1)
				t0 := time.Now()
				status, body, err := st.rig.post(src)
				lat := time.Since(t0)
				tr.end(sp)
				res := editResult{done: true, status: status, err: err, lat: lat, end: time.Since(start)}
				if sampled(i) {
					res.body = body
				}
				results[i] = res
				if completed.Add(1) == editHeapWindow {
					v := heap.lap()
					heapAtWindow.Store(&v)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	heapMB := heapAtWindow.Load()
	if heapMB == nil {
		// The run ended before editHeapWindow replies.
		v := heap.lap()
		heapMB = &v
	}
	heap.close()
	rep.set("peak_heap_mb", *heapMB)
	rtDelta := readRuntime().sub(rt0)
	fr1, fs1 := freq.Stats()

	var lat []float64
	slices := make([]float64, 10)
	for i, r := range results {
		if !r.done {
			continue
		}
		rep.attempted++
		if r.err != nil || r.status != http.StatusOK {
			rep.fail("request %d: status %d, err %v", i, r.status, r.err)
		}
		lat = append(lat, ms(r.lat))
		slices[min(len(slices)-1, int(int64(len(slices))*int64(r.end)/int64(wall)))]++
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no request completed")
	}
	for i := range slices {
		slices[i] /= wall.Seconds() / float64(len(slices))
	}
	reqPerS := median(slices)
	rep.setLatency(lat)
	rep.set("requests_per_s", reqPerS)
	rep.set("kinstrs_per_s", reqPerS*float64(st.instrs)/1e3)

	ev, err := checkEditSamples(rc, st, results, tr, rep)
	if err != nil {
		return nil, err
	}
	rep.set("range_share", ev.rangeShare())
	rep.set("vrp_werr_pp", mean(ev.werr))
	rep.note("%d sampled bodies matched against a store-less, cache-less server", ev.samples)
	if tr == nil {
		return rep, nil
	}

	after, err := st.rig.scrape()
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	setServerMetrics(rep, before, after, rep.attempted)
	rep.set("freq.factorizations", float64(fr1-fr0)/float64(rep.attempted))
	rep.set("freq.solves", float64(fs1-fs0)/float64(rep.attempted))
	rep.setRuntime(rtDelta, rep.attempted, rep.attempted*st.instrs)
	return rep, writeTrace(rc, tr)
}

// responseBody is the part of a /v1/analyze body the checks read.
type responseBody struct {
	Predictions []server.PredictionJSON `json:"predictions"`
}

// editEval is what the sampled bodies showed.
type editEval struct {
	samples, ranged, branches int
	werr                      []float64
}

func (e editEval) rangeShare() float64 { return float64(e.ranged) / float64(max(e.branches, 1)) }

// checkEditSamples checks the sampled responses after the loop with
// checkResponse. Traced runs also replay the sampled sources through the
// front-end layers, one span each.
func checkEditSamples(rc runConfig, st *editSetup, results []editResult, tr *tracer, rep *report) (editEval, error) {
	var ev editEval
	oracleSrv := newOracleServer(rc.workers)
	var irgenInstrs, ssaInstrs int
	var tracedReplay, plainReplay time.Duration
	for i, r := range results {
		if !r.done || !sampled(i) || r.status != http.StatusOK {
			continue
		}
		ev.samples++
		src := st.source(i)
		sc, err := checkResponse(oracleSrv, src, r.body, genInputValue(rc.seed), tr)
		if err != nil {
			rep.fail("request %d: %v", i, err)
			continue
		}
		if w, ok := sc.oracle.werr(sc.preds); ok {
			ev.werr = append(ev.werr, w)
		}
		ev.ranged += rangeCount(sc.preds)
		ev.branches += len(sc.preds)
		if tr == nil {
			continue
		}
		// Replay the source through the front end twice, traced and
		// untraced, alternating which goes first: the spans give the
		// layers' self times, the pair the cost of the spans themselves.
		for k := 0; k < 2; k++ {
			replayTr := tr
			if (i/editSampleEvery+k)%2 == 1 {
				replayTr = nil
			}
			op := replayTr.newOp()
			t0 := time.Now()
			root := replayTr.start("replay", op, -1)
			p, n, err := frontEnd("request.mini", src, replayTr, op, root)
			replayTr.end(root)
			d := time.Since(t0)
			if err != nil {
				return ev, err
			}
			if replayTr == nil {
				plainReplay += d
				continue
			}
			tracedReplay += d
			irgenInstrs += n
			ssaInstrs += p.NumInstrs()
		}
	}
	if ev.samples == 0 {
		return ev, fmt.Errorf("no sampled request completed")
	}
	if tr != nil {
		n := float64(ev.samples)
		self := selfTimes(tr.snapshot())
		for _, layer := range []string{"parser", "sem", "irgen", "ssaform"} {
			rep.set(layer+".self_ms", ms(self[layer])/n)
		}
		rep.set("interp.self_ms", ms(self["interp"]))
		rep.set("irgen.instrs", float64(irgenInstrs)/n)
		rep.set("ssaform.instrs", float64(ssaInstrs)/n)
		rep.setOverhead(ms(tracedReplay)/n, ms(plainReplay)/n)
	}
	return ev, nil
}

// newOracleServer is a vrpd with no response cache and no per-function
// store: every request is a cold analysis.
func newOracleServer(workers int) *server.Server {
	return server.New(server.Config{CacheEntries: -1, FuncStoreEntries: -1, RecorderEntries: -1,
		Workers: max(1, workers/editClients), Logger: discardLogger()})
}

// checkedResponse is one response that passed checkResponse.
type checkedResponse struct {
	preds  []pred
	oracle profileOracle
}

// checkResponse holds one /v1/analyze body to its oracles: it must equal
// the body oracleSrv returns for the same source, and no range-certain
// prediction in it may be contradicted by an interpreter run of the
// source on input.
func checkResponse(oracleSrv *server.Server, src string, got []byte, input int64, tr *tracer) (checkedResponse, error) {
	var c checkedResponse
	rec := httptest.NewRecorder()
	oracleSrv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(src)))
	if !bytes.Equal(rec.Body.Bytes(), got) {
		return c, fmt.Errorf("body differs from a store-less, cache-less server's")
	}
	var body responseBody
	if err := json.Unmarshal(got, &body); err != nil {
		return c, err
	}
	p, err := vrp.Compile("request.mini", src)
	if err != nil {
		return c, err
	}
	s := tr.start("interp", tr.newOp(), -1)
	prof, err := p.Run([]int64{input})
	tr.end(s)
	if err != nil {
		return c, fmt.Errorf("interpreter run: %w", err)
	}
	if c.preds, err = bodyPreds(p.IR, body.Predictions); err != nil {
		return c, err
	}
	c.oracle = newProfileOracle(p.IR, prof)
	if bad := c.oracle.contradictions(c.preds); len(bad) > 0 {
		return c, fmt.Errorf("%d contradicted certain predictions, first: %s", len(bad), bad[0])
	}
	return c, nil
}

// bodyPreds pairs a response's predictions, which come in function then
// block order, with the branches of a local compile of the same source.
func bodyPreds(p *ir.Program, js []server.PredictionJSON) ([]pred, error) {
	var preds []pred
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			t := b.Terminator()
			if t == nil || t.Op != ir.OpBr {
				continue
			}
			n := len(preds)
			if n >= len(js) {
				return nil, fmt.Errorf("response has %d predictions, the program more branches", len(js))
			}
			j := js[n]
			if j.Func != f.Name || j.Line != t.Pos.Line || j.Col != t.Pos.Col {
				return nil, fmt.Errorf("prediction %d is %s:%d:%d, the branch %s:%d:%d",
					n, j.Func, j.Line, j.Col, f.Name, t.Pos.Line, t.Pos.Col)
			}
			preds = append(preds, pred{fn: j.Func, line: j.Line, col: j.Col, prob: j.Prob, source: j.Source, block: b.ID})
		}
	}
	if len(preds) != len(js) {
		return nil, fmt.Errorf("response has %d predictions, the program %d branches", len(js), len(preds))
	}
	return preds, nil
}

// setServerMetrics reports the server, vrp and vrange layers of
// edit-stream from the difference of two /metrics scrapes.
func setServerMetrics(rep *report, before, after map[string]float64, requests int) {
	d := func(series string) float64 { return after[series] - before[series] }
	perReq := float64(max(requests, 1))
	analyses := d("vrpd_analyses_converged_total") + d("vrpd_analyses_not_converged_total")
	perAnalysis := func(v float64) float64 { return v / max(analyses, 1) }
	hitRatio := func(hits, misses string) float64 {
		h, m := d(hits), d(misses)
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	}
	rep.set("server.cache_hit_ratio", hitRatio("vrpd_cache_hits_total", "vrpd_cache_misses_total"))
	rep.set("server.funcstore_hit_ratio", hitRatio("vrpd_funcstore_hits_total", "vrpd_funcstore_misses_total"))
	// vrpd counts no store writes; a write adds an entry or evicts one.
	rep.set("server.funcstore_writes", (d("vrpd_funcstore_entries")+d("vrpd_funcstore_evictions_total"))/perReq)
	rep.set("server.funcstore_evictions", d("vrpd_funcstore_evictions_total")/perReq)
	rep.set("server.shed", d("vrpd_requests_shed_total")/perReq)
	for _, ph := range []string{"parse", "ssa", "vrp", "render"} {
		sum := d(`vrpd_phase_duration_seconds_sum{phase="` + ph + `"}`)
		cnt := d(`vrpd_phase_duration_seconds_count{phase="` + ph + `"}`)
		rep.set("server.phase_"+ph+"_ms", 1e3*sum/max(cnt, 1))
	}
	rep.set("vrp.self_ms", rep.values["server.phase_vrp_ms"])
	rep.set("vrp.passes", perAnalysis(d("vrpd_analysis_passes_sum")))
	// vrpd_lattice_funcs_analyzed_total counts the engine runs the
	// analyses executed: a function spliced from the store is not one.
	rep.set("vrp.engine_runs", perAnalysis(d("vrpd_lattice_funcs_analyzed_total")))
	rep.set("vrp.engine_steps", perAnalysis(d("vrpd_lattice_steps_total")))
	rep.set("vrp.skipped", perAnalysis(d("vrpd_lattice_funcs_skipped_total")))
	rep.set("vrp.spliced", perAnalysis(d("vrpd_funcstore_hits_total")))
	rep.set("vrp.skip_ratio", hitRatio("vrpd_lattice_funcs_skipped_total", "vrpd_lattice_funcs_analyzed_total"))
	rep.set("vrp.converged", perAnalysis(d("vrpd_analyses_converged_total")))
	rep.set("vrp.stale_certain", perAnalysis(d("vrpd_quality_stale_certain_total")))
	rep.set("vrp.degraded", perAnalysis(d("vrpd_lattice_funcs_degraded_total")))
	rep.set("vrp.derive_hit_ratio", hitRatio("vrpd_lattice_derive_hits_total", "vrpd_lattice_derive_misses_total"))
	// vrp.expr_evals, phi_evals and sub_ops are not reported here: a reply's
	// stats add a spliced function's stored counts, so they give a cold
	// analysis's effort, not the work this server did. vrp.engine_steps
	// counts only what the engine executed.
	rep.set("vrange.intern_hit_ratio", hitRatio("vrpd_lattice_intern_hits_total", "vrpd_lattice_intern_misses_total"))
	rep.set("vrange.memo_hit_ratio", hitRatio("vrpd_lattice_memo_hits_total", "vrpd_lattice_memo_misses_total"))
	rep.set("vrange.intern_live", after["vrpd_lattice_intern_live_entries"])
	rep.set("vrange.widens", perAnalysis(d("vrpd_lattice_widens_total")))
	rep.set("vrange.phi_merges", perAnalysis(d("vrpd_lattice_phi_merges_total")))
}
