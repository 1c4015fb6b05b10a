package vrp_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"vrp"
	"vrp/internal/corpus"
	"vrp/internal/genprog"
)

// outputDigestGolden pins every analysis output the pipeline publishes:
// the prediction of each branch (probability at %.17g and its source),
// the run's Stats and its diagnostics, over the 43 corpus programs and
// the genprog shape presets at Workers 1 and 2. Frequencies are left out:
// their last bits may drift by one ulp on recursive programs.
//
// A change that must not move any output bit (a refactor of the range
// algebra or the driver) leaves this digest as it is. A change that
// moves output on purpose updates it and says why.
const (
	outputDigestGolden    = "aa42700dd8088aa7d3dfb9d2616f5918900113d82db3425b7992fe0b6c84142a"
	outputDigestGolden10k = "9396052a10a908a73f1388e8ffe723f61038903d372698a5dde6f80c7618d3c7"
)

// TestOutputDigestGolden hashes the outputs described at
// outputDigestGolden and compares the digest with the committed one. The
// 10k preset runs unless -short is set, and is pinned by a digest of its
// own so the short run is checked too.
func TestOutputDigestGolden(t *testing.T) {
	type input struct{ name, src string }
	var inputs []input
	for _, cp := range corpus.All() {
		inputs = append(inputs, input{cp.Name, cp.Source})
	}
	for _, name := range []string{"default", "wide-scc", "deep-loop", "recursive"} {
		cfg, ok := genprog.Preset(name)
		if !ok {
			t.Fatalf("unknown preset %q", name)
		}
		inputs = append(inputs, input{"gen-" + name, genprog.Source(cfg)})
	}

	h := sha256.New()
	for _, in := range inputs {
		digestProgram(t, h, in.name, in.src)
	}
	checkDigest(t, "corpus + shape presets", h, outputDigestGolden)

	if testing.Short() {
		return
	}
	cfg, _ := genprog.Preset("10k")
	h = sha256.New()
	digestProgram(t, h, "gen-10k", genprog.Source(cfg))
	checkDigest(t, "10k preset", h, outputDigestGolden10k)
}

// digestProgram analyzes one program at Workers 1 and 2 and folds the
// published outputs of both runs into h.
func digestProgram(t *testing.T, h hash.Hash, name, src string) {
	t.Helper()
	p, err := vrp.Compile(name+".mini", src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, workers := range []int{1, 2} {
		a, err := p.Analyze(vrp.WithWorkers(workers))
		if err != nil {
			t.Fatalf("%s (workers %d): %v", name, workers, err)
		}
		fmt.Fprintf(h, "program %s workers %d\n", name, workers)
		for _, pr := range a.Predictions() {
			fmt.Fprintf(h, "%s %d:%d %.17g %s\n", pr.Func, pr.Pos.Line, pr.Pos.Col, pr.Prob, pr.Source)
		}
		fmt.Fprintf(h, "stats %+v\n", a.Result.Stats)
		for _, d := range a.Diagnostics() {
			fmt.Fprintf(h, "diag %s\n", d)
		}
	}
}

func checkDigest(t *testing.T, what string, h hash.Hash, want string) {
	t.Helper()
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("%s: output digest %s, want %s", what, got, want)
	}
}
