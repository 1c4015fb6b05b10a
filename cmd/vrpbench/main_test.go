package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vrp/internal/bench"
)

// TestRunExitCodes pins vrpbench's exit codes. In particular -gate
// without -perf or -quality used to fall through to the full
// reproduction and exit 0, so a CI step could pass without checking
// anything; it is a usage error.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		args    []string
		code    int
		stderr  string // substring of stderr
		stdout  string // substring of stdout
		silence bool   // nothing may reach stdout
	}{
		{args: []string{"-gate"}, code: 2, stderr: "-gate needs -perf or -quality", silence: true},
		{args: []string{"-gate", "-fig", "4"}, code: 2, stderr: "-gate needs -perf or -quality", silence: true},
		{args: []string{"-summary", "-gate"}, code: 2, stderr: "-gate needs -perf or -quality", silence: true},
		{args: []string{"-nosuchflag"}, code: 2, silence: true},
		{args: []string{"-fig", "3"}, code: 2, stderr: "unknown figure 3", silence: true},
		{args: []string{"-fig", "4"}, code: 0, stdout: "Figure 4"},
	}
	for _, tc := range cases {
		var out, errw strings.Builder
		if code := run(tc.args, &out, &errw); code != tc.code {
			t.Errorf("vrpbench %v exited %d, want %d (stderr %q)", tc.args, code, tc.code, errw.String())
		}
		if !strings.Contains(errw.String(), tc.stderr) {
			t.Errorf("vrpbench %v: stderr %q lacks %q", tc.args, errw.String(), tc.stderr)
		}
		if !strings.Contains(out.String(), tc.stdout) || tc.silence && out.Len() != 0 {
			t.Errorf("vrpbench %v: unexpected stdout %q", tc.args, out.String())
		}
	}
}

// TestRunPerfGateKeepsBaseline pins that a failing perf gate leaves the
// committed ledger alone: rewriting it would make the regressed numbers
// the next run's baseline, so a rerun would pass. A passing gate, or a
// run without -gate, writes the fresh ledger.
func TestRunPerfGateKeepsBaseline(t *testing.T) {
	ledger := func(allocs float64) *bench.PerfReport {
		rep := &bench.PerfReport{Schema: bench.PerfSchema, GoVersion: "go1.24.0", Rounds: 7}
		for _, name := range []string{"merged-1", "gen-10k", "gen-100k"} {
			rep.Points = append(rep.Points, bench.PerfPoint{Name: name, Instrs: 1000, NsPerInstr: 20000, AllocsPerInstr: allocs})
		}
		return rep
	}
	cases := []struct {
		name   string
		allocs float64
		gate   bool
		err    string // substring of the error; "" = success
		wrote  bool
	}{
		{name: "regression fails and keeps the baseline", allocs: 15, gate: true, err: "left unchanged"},
		{name: "passing gate writes", allocs: 10.1, gate: true, wrote: true},
		{name: "no gate writes", allocs: 15, wrote: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH_perf.json")
			if err := writeReport(path, ledger(10)); err != nil {
				t.Fatal(err)
			}
			before, _ := os.ReadFile(path)
			var out strings.Builder
			err := runPerf(&out, path, tc.gate, func() (*bench.PerfReport, error) { return ledger(tc.allocs), nil })
			switch {
			case tc.err == "" && err != nil:
				t.Fatalf("runPerf: %v", err)
			case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
				t.Fatalf("runPerf error %v, want one containing %q", err, tc.err)
			}
			if !strings.Contains(out.String(), "perf ledger") {
				t.Errorf("no table printed: %q", out.String())
			}
			after, _ := os.ReadFile(path)
			if changed := string(after) != string(before); changed != tc.wrote {
				t.Errorf("ledger rewritten = %v, want %v", changed, tc.wrote)
			}
		})
	}
}

// TestRunQualityGateKeepsBaseline is TestRunPerfGateKeepsBaseline for
// the quality report: a failing quality gate leaves the committed
// baseline alone, while a passing gate, or a run without -gate, writes
// the fresh report.
func TestRunQualityGateKeepsBaseline(t *testing.T) {
	report := func(agreement float64) *bench.QualityReport {
		return &bench.QualityReport{Schema: bench.QualitySchema, Suites: []bench.QualitySuite{
			{Suite: "gen-default", Programs: 1, Branches: 100, AgreementPct: agreement},
		}}
	}
	cases := []struct {
		name      string
		agreement float64
		gate      bool
		err       string // substring of the error; "" = success
		wrote     bool
	}{
		{name: "regression fails and keeps the baseline", agreement: 50, gate: true, err: "left unchanged"},
		{name: "passing gate writes", agreement: 91, gate: true, wrote: true},
		{name: "no gate writes", agreement: 50, wrote: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH_quality.json")
			if err := writeReport(path, report(90)); err != nil {
				t.Fatal(err)
			}
			before, _ := os.ReadFile(path)
			var out strings.Builder
			err := runQuality(&out, path, "", tc.gate, func() (*bench.QualityReport, error) { return report(tc.agreement), nil })
			switch {
			case tc.err == "" && err != nil:
				t.Fatalf("runQuality: %v", err)
			case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
				t.Fatalf("runQuality error %v, want one containing %q", err, tc.err)
			}
			if !strings.Contains(out.String(), "Prediction quality") {
				t.Errorf("no table printed: %q", out.String())
			}
			after, _ := os.ReadFile(path)
			if changed := string(after) != string(before); changed != tc.wrote {
				t.Errorf("report rewritten = %v, want %v", changed, tc.wrote)
			}
		})
	}
}
