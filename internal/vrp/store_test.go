package vrp

import (
	"fmt"
	"strings"
	"testing"

	"vrp/internal/genprog"
)

// memStore is a minimal FuncStore for tests that analyze from one
// goroutine: buckets by fingerprint triple, confirms with SameKey, counts
// collisions, never unifies.
type memStore struct {
	buckets    map[[3]uint64][]memEntry
	hits       int64
	misses     int64
	collisions int64
	stored     int64
}

type memEntry struct {
	key *FuncKey
	sf  *StoredFunc
}

func newMemStore() *memStore {
	return &memStore{buckets: map[[3]uint64][]memEntry{}}
}

func fpTriple(k *FuncKey) [3]uint64 { return [3]uint64{k.BodyFP, k.InputFP, k.ConfigFP} }

func (s *memStore) Lookup(key *FuncKey) (*StoredFunc, bool) {
	bucket := s.buckets[fpTriple(key)]
	for _, e := range bucket {
		if e.key.SameKey(key) {
			s.hits++
			return e.sf, true
		}
	}
	if len(bucket) > 0 {
		s.collisions++
	}
	s.misses++
	return nil, false
}

func (s *memStore) Store(key *FuncKey, sf *StoredFunc) {
	fp := fpTriple(key)
	for _, e := range s.buckets[fp] {
		if e.key.SameKey(key) {
			return
		}
	}
	s.buckets[fp] = append(s.buckets[fp], memEntry{key: key, sf: sf})
	s.stored++
}

// clobberStore degrades every fingerprint to one constant before
// delegating, forcing all entries into a single bucket. With the
// fingerprints useless, only the SameKey confirm separates functions —
// so any result difference under this store is a missing-confirm bug.
type clobberStore struct{ inner *memStore }

func (c *clobberStore) clobber(key *FuncKey) *FuncKey {
	k := *key
	k.BodyFP, k.InputFP, k.ConfigFP = 0xC0111DED, 0xC0111DED, 0xC0111DED
	return &k
}

func (c *clobberStore) Lookup(key *FuncKey) (*StoredFunc, bool) {
	return c.inner.Lookup(c.clobber(key))
}

func (c *clobberStore) Store(key *FuncKey, sf *StoredFunc) {
	c.inner.Store(c.clobber(key), sf)
}

// storeTestProgram builds an n-kernel program whose kernel editK (when
// >= 0) has one branch constant shifted. Every kernel returns the same
// constant on both arms, so the edit changes that kernel's body without
// changing its return range — the dirty cone of the edit is exactly the
// kernel itself, and an incremental analysis should splice all others.
func storeTestProgram(n, editK int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		c := 10 + i
		if i == editK {
			c += 77
		}
		fmt.Fprintf(&b, "func f%d(a) {\n\tvar x = a + %d;\n\tif (x < %d) {\n\t\treturn %d;\n\t}\n\treturn %d;\n}\n",
			i, i, c, i+1, i+1)
	}
	b.WriteString("func main() {\n\tvar s = input();\n\tvar t = 0;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "\tt += f%d(s);\n", i)
	}
	b.WriteString("\tprint(t);\n}\n")
	return b.String()
}

// sameResult asserts two analyses of the same source are bit-identical:
// branch probabilities and sources, per-register values, edge
// frequencies, and every Stats field except FuncsSpliced.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	gb, wb := got.Branches(), want.Branches()
	if len(gb) != len(wb) {
		t.Fatalf("%s: %d branches, want %d", label, len(gb), len(wb))
	}
	for i := range gb {
		if gb[i].Fn.Name != wb[i].Fn.Name || gb[i].Prob != wb[i].Prob || gb[i].Source != wb[i].Source {
			t.Errorf("%s: branch %d = {%s %v %v}, want {%s %v %v}", label, i,
				gb[i].Fn.Name, gb[i].Prob, gb[i].Source,
				wb[i].Fn.Name, wb[i].Prob, wb[i].Source)
		}
	}
	for _, wf := range want.Prog.Funcs {
		wr := want.Funcs[wf]
		var gr *FuncResult
		for _, gf := range got.Prog.Funcs {
			if gf.Name == wf.Name {
				gr = got.Funcs[gf]
			}
		}
		if (gr == nil) != (wr == nil) {
			t.Fatalf("%s: %s result presence mismatch", label, wf.Name)
		}
		if wr == nil {
			continue
		}
		if len(gr.Val) != len(wr.Val) {
			t.Fatalf("%s: %s has %d regs, want %d", label, wf.Name, len(gr.Val), len(wr.Val))
		}
		for i := range wr.Val {
			if !gr.Val[i].BitEqual(wr.Val[i]) {
				t.Errorf("%s: %s r%d = %v, want %v", label, wf.Name, i, gr.Val[i], wr.Val[i])
			}
		}
		if len(gr.EdgeFreq) != len(wr.EdgeFreq) {
			t.Fatalf("%s: %s edge count mismatch", label, wf.Name)
		}
		for i := range wr.EdgeFreq {
			if gr.EdgeFreq[i] != wr.EdgeFreq[i] {
				t.Errorf("%s: %s edge %d freq = %v, want %v", label, wf.Name, i, gr.EdgeFreq[i], wr.EdgeFreq[i])
			}
		}
	}
	gs, ws := got.Stats, want.Stats
	gs.FuncsSpliced, ws.FuncsSpliced = 0, 0
	if gs != ws {
		t.Errorf("%s: stats = %+v, want %+v", label, gs, ws)
	}
}

// TestFuncStoreSplice: a warm store fed by the base program lets a
// one-function edit re-analyze only that function (FuncsSpliced >= n-1),
// and the spliced result is bit-identical to a cold analysis.
func TestFuncStoreSplice(t *testing.T) {
	const n = 10
	st := newMemStore()

	cfg := DefaultConfig()
	cfg.FuncStore = st
	cold, err := Analyze(compileSrc(t, "store.mini", storeTestProgram(n, -1)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.FuncsSpliced != 0 {
		t.Fatalf("cold run spliced %d functions from an empty store", cold.Stats.FuncsSpliced)
	}
	if st.stored == 0 {
		t.Fatal("cold run stored nothing")
	}

	edited := storeTestProgram(n, 3)
	warm, err := Analyze(compileSrc(t, "store.mini", edited), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.FuncsSpliced < n-1 {
		t.Errorf("warm run spliced %d functions, want >= %d", warm.Stats.FuncsSpliced, n-1)
	}

	fresh, err := Analyze(compileSrc(t, "store.mini", edited), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "warm vs fresh", warm, fresh)

	// And the warmed store must keep being correct: re-analyzing the base
	// program now splices everything yet still matches a fresh cold run.
	rewarm, err := Analyze(compileSrc(t, "store.mini", storeTestProgram(n, -1)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rewarm.Stats.FuncsSpliced < rewarm.Stats.FuncsAnalyzed-1 {
		t.Errorf("re-warm spliced %d of %d analyzed", rewarm.Stats.FuncsSpliced, rewarm.Stats.FuncsAnalyzed)
	}
	sameResult(t, "rewarm vs cold", rewarm, cold)
}

// TestFuncStoreCollisionConfirmed: with every fingerprint clobbered to
// one constant, all entries share a single bucket and only the SameKey
// confirm tells functions apart. Results must stay bit-identical to a
// store-free analysis, and the scan must actually have seen colliding
// entries. Before confirmation existed, a fingerprint match alone would
// have served the wrong function's record here.
func TestFuncStoreCollisionConfirmed(t *testing.T) {
	inner := newMemStore()
	cfg := DefaultConfig()
	cfg.FuncStore = &clobberStore{inner: inner}

	src := storeTestProgram(8, -1)
	withStore, err := Analyze(compileSrc(t, "store.mini", src), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(inner.buckets) != 1 {
		t.Fatalf("clobbered store has %d buckets, want 1", len(inner.buckets))
	}
	if inner.collisions == 0 {
		t.Fatal("clobbered fingerprints produced no collisions — the test is not exercising the confirm path")
	}

	without, err := Analyze(compileSrc(t, "store.mini", src), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "clobbered store vs no store", withStore, without)

	// Warm pass through the colliding bucket: still bit-identical.
	warm, err := Analyze(compileSrc(t, "store.mini", src), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.FuncsSpliced == 0 {
		t.Error("warm clobbered run spliced nothing despite confirmed entries")
	}
	sameResult(t, "warm clobbered vs no store", warm, without)
}

// TestFuncStoreInputCollisionFreshAnalysis: two programs whose shared
// kernel body is identical but whose call sites feed it different
// argument ranges must never serve each other's records, even when the
// store's fingerprints are clobbered into one bucket.
func TestFuncStoreInputCollisionFreshAnalysis(t *testing.T) {
	inner := newMemStore()
	cfg := DefaultConfig()
	cfg.FuncStore = &clobberStore{inner: inner}

	shared := "func g(a) {\n\tif (a < 50) {\n\t\treturn 1;\n\t}\n\treturn 2;\n}\n"
	progA := shared + "func main() {\n\tvar t = g(10);\n\tprint(t);\n}\n"
	progB := shared + "func main() {\n\tvar t = g(90);\n\tprint(t);\n}\n"

	resA, err := Analyze(compileSrc(t, "store.mini", progA), cfg)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Analyze(compileSrc(t, "store.mini", progB), cfg)
	if err != nil {
		t.Fatal(err)
	}
	freshA, err := Analyze(compileSrc(t, "store.mini", progA), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	freshB, err := Analyze(compileSrc(t, "store.mini", progB), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "program A through colliding store", resA, freshA)
	sameResult(t, "program B through colliding store", resB, freshB)
}

// TestFuncStoreWorkerDeterminism: splicing is deterministic — two warm
// runs from identically seeded stores agree with each other, including
// their Stats, and with a fresh run.
func TestFuncStoreWorkerDeterminism(t *testing.T) {
	gcfg := genprog.Config{Seed: 7, Funcs: 12, Diamonds: 2, LoopDepth: 2}
	base := genprog.Source(gcfg)
	edited, ok := genprog.EditFunc(base, 5, 123)
	if !ok {
		t.Fatal("EditFunc failed on generated source")
	}

	warmRun := func() *Result {
		cfg := DefaultConfig()
		cfg.FuncStore = newMemStore()
		if _, err := Analyze(compileSrc(t, "store.mini", base), cfg); err != nil {
			t.Fatal(err)
		}
		warm, err := Analyze(compileSrc(t, "store.mini", edited), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Stats.FuncsSpliced == 0 {
			t.Error("warm run spliced nothing")
		}
		return warm
	}
	first, second := warmRun(), warmRun()
	sameResult(t, "warm vs repeated warm", second, first)
	if first.Stats != second.Stats {
		t.Errorf("warm stats differ between two runs:\n%+v\n%+v", first.Stats, second.Stats)
	}

	fresh, err := Analyze(compileSrc(t, "store.mini", edited), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "warm vs fresh", first, fresh)
}
