package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// perfLedger builds a ledger with the given allocs/instr per point and
// the gen tiers' ns/instr.
func perfLedger(allocs map[string]float64, ns10k, ns100k float64) *PerfReport {
	rep := &PerfReport{Schema: PerfSchema, GoVersion: "go1.22", Rounds: perfRounds}
	for _, name := range []string{"merged-1", "merged-31", "gen-10k", "gen-100k"} {
		p := PerfPoint{Name: name, Instrs: 1000, NsPerInstr: 5000, AllocsPerInstr: allocs[name]}
		switch name {
		case "gen-10k":
			p.NsPerInstr = ns10k
		case "gen-100k":
			p.NsPerInstr = ns100k
		}
		rep.Points = append(rep.Points, p)
	}
	return rep
}

func TestPerfGate(t *testing.T) {
	baseAllocs := map[string]float64{"merged-1": 20, "merged-31": 13, "gen-10k": 14, "gen-100k": 14}
	base := perfLedger(baseAllocs, 20000, 21000)
	bumped := func(name string, v float64) map[string]float64 {
		m := map[string]float64{}
		for k, x := range baseAllocs {
			m[k] = x
		}
		m[name] = v
		return m
	}
	dropPoint := func(rep *PerfReport, name string) *PerfReport {
		var kept []PerfPoint
		for _, p := range rep.Points {
			if p.Name != name {
				kept = append(kept, p)
			}
		}
		rep.Points = kept
		return rep
	}
	otherGo := perfLedger(bumped("merged-1", 25), 20000, 21000)
	otherGo.GoVersion = "go1.24"
	newPoint := perfLedger(baseAllocs, 20000, 21000)
	newPoint.Points = append(newPoint.Points, PerfPoint{Name: "gen-1m", AllocsPerInstr: 1e6, NsPerInstr: 1e9})

	cases := []struct {
		name string
		cur  *PerfReport
		want []string // substrings of the error; nil = pass
		not  []string // point names the error must not blame
	}{
		{name: "identical", cur: perfLedger(baseAllocs, 20000, 21000)},
		{name: "within slack", cur: perfLedger(bumped("merged-31", 13*1.019), 20000, 21000)},
		{name: "allocs breach names the point",
			cur:  perfLedger(bumped("merged-31", 13*1.03), 20000, 21000),
			want: []string{"merged-31", "allocs/instr"},
			not:  []string{"merged-1:", "gen-10k:", "gen-100k:"}},
		{name: "super-linear scaling", cur: perfLedger(baseAllocs, 20000, 40001),
			want: []string{"scale", "gen-100k"}},
		{name: "scaling at the bound passes", cur: perfLedger(baseAllocs, 20000, 40000)},
		{name: "missing gen-10k", cur: dropPoint(perfLedger(baseAllocs, 20000, 21000), "gen-10k"),
			want: []string{"gen-10k and gen-100k"}},
		{name: "missing gen-100k", cur: dropPoint(perfLedger(baseAllocs, 20000, 21000), "gen-100k"),
			want: []string{"gen-10k and gen-100k"}},
		{name: "point absent from baseline is skipped", cur: newPoint},
		{name: "a failure names a toolchain change", cur: otherGo,
			want: []string{"merged-1", "written by go1.22, this run is go1.24"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := PerfGate(base, tc.cur)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("gate failed: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("gate passed, want a failure")
			}
			for _, s := range tc.want {
				if !strings.Contains(err.Error(), s) {
					t.Errorf("error %q missing %q", err, s)
				}
			}
			for _, s := range tc.not {
				if strings.Contains(err.Error(), s) {
					t.Errorf("error %q blames %q", err, s)
				}
			}
		})
	}
}

func TestQuartiles(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 2, 3, 4},
		{[]float64{4, 3, 2, 1}, 1.75, 2.5, 3.25},
		{[]float64{10, 30, 20, 50, 40, 70, 60}, 25, 40, 55},
		{[]float64{7}, 7, 7, 7},
		{nil, 0, 0, 0},
	}
	for _, tc := range cases {
		q1, med, q3 := quartiles(append([]float64(nil), tc.xs...))
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(med-tc.med) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

func TestPerfReportJSONShape(t *testing.T) {
	rep := perfLedger(map[string]float64{"gen-10k": 14}, 20000, 21000)
	rep.Points[0].PhaseNsPerInstr = map[string]float64{"parse": 1, "ssa": 2, "vrp": 3}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var round PerfReport
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatal(err)
	}
	if len(round.Points) != len(rep.Points) || round.Points[2].AllocsPerInstr != 14 {
		t.Errorf("round trip lost data: %s", data)
	}
	for _, key := range []string{`"schema":"vrp-perf/v2"`, `"go_version"`, `"gomaxprocs"`, `"rounds"`, `"points"`,
		`"name"`, `"instrs"`, `"funcs"`, `"ns_per_instr"`, `"ns_per_instr_iqr"`, `"phase_ns_per_instr"`,
		`"parse"`, `"ssa"`, `"vrp"`, `"allocs_per_instr"`, `"bytes_per_instr"`, `"peak_heap_bytes"`,
		`"passes"`, `"converged"`} {
		if !bytes.Contains(data, []byte(key)) {
			t.Errorf("JSON missing documented key %s", key)
		}
	}
}
