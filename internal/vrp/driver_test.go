package vrp

import (
	"fmt"
	"math"
	"testing"

	"vrp/internal/corpus"
	"vrp/internal/ir"
	"vrp/internal/irgen"
	"vrp/internal/parser"
	"vrp/internal/sem"
	"vrp/internal/ssaform"
)

func compileSrc(t *testing.T, name, src string) *ir.Program {
	t.Helper()
	ast, err := parser.Parse(name, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sem.Check(ast); err != nil {
		t.Fatal(err)
	}
	prog, err := irgen.Build(ast)
	if err != nil {
		t.Fatal(err)
	}
	if err := ssaform.Build(prog); err != nil {
		t.Fatal(err)
	}
	return prog
}

// branchesEqual compares two Branches() slices bit for bit (same underlying
// program, so instruction identity is comparable directly).
func branchesEqual(t *testing.T, label string, a, b []Branch) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: branch count %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Fn != b[i].Fn || a[i].Instr != b[i].Instr {
			t.Fatalf("%s: branch %d identity differs", label, i)
		}
		if math.Float64bits(a[i].Prob) != math.Float64bits(b[i].Prob) {
			t.Errorf("%s: branch %d prob %v vs %v (not bit-identical)",
				label, i, a[i].Prob, b[i].Prob)
		}
		if a[i].Source != b[i].Source {
			t.Errorf("%s: branch %d source %v vs %v", label, i, a[i].Source, b[i].Source)
		}
	}
}

// TestDirtySetSoundness: the incremental schedule (dirty-set skipping on)
// must be bit-identical to a full every-pass re-analysis on the whole
// corpus — skipping a clean function can never change an output.
func TestDirtySetSoundness(t *testing.T) {
	for _, cp := range corpus.All() {
		prog := compileSrc(t, cp.Name, cp.Source)
		fullCfg := DefaultConfig()
		fullCfg.noSkip = true
		incrCfg := DefaultConfig()
		full, err := Analyze(prog, fullCfg)
		if err != nil {
			t.Fatalf("%s: %v", cp.Name, err)
		}
		incr, err := Analyze(prog, incrCfg)
		if err != nil {
			t.Fatalf("%s: %v", cp.Name, err)
		}
		branchesEqual(t, cp.Name, full.Branches(), incr.Branches())
		if full.Stats.FuncsSkipped != 0 {
			t.Errorf("%s: noSkip run skipped %d functions", cp.Name, full.Stats.FuncsSkipped)
		}
	}
}

// TestDirtySetSkipsWork: on a fixpoint that converges early, pass-2+
// re-analyses of unchanged functions must be skipped.
func TestDirtySetSkipsWork(t *testing.T) {
	prog := compileSrc(t, "skip.mini", `
func leaf(a) { return a + 1; }
func mid(x) {
	var s = 0;
	for (var i = 0; i < x; i++) { s = s + leaf(i); }
	return s;
}
func main() {
	print(mid(10));
	print(leaf(100));
}`)
	res, err := Analyze(prog, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Passes < 2 {
		t.Fatalf("expected a multi-pass fixpoint, got %d pass(es)", res.Stats.Passes)
	}
	if res.Stats.FuncsSkipped == 0 {
		t.Error("expected the dirty set to skip re-analyses on later passes")
	}
	total := int64(res.Stats.Passes) * int64(len(prog.Funcs))
	if res.Stats.FuncsAnalyzed+res.Stats.FuncsSkipped != total {
		t.Errorf("analyzed %d + skipped %d != passes×funcs %d",
			res.Stats.FuncsAnalyzed, res.Stats.FuncsSkipped, total)
	}
	if res.Stats.FuncsAnalyzed >= total {
		t.Errorf("dirty set saved no work: %d analyses of %d slots", res.Stats.FuncsAnalyzed, total)
	}
}

// chainProg builds main → f1 → f2 → … → f(depth-1), each function
// returning its callee's result (the leaf returns 1).
func chainProg(t *testing.T, depth int) *ir.Program {
	t.Helper()
	p := &ir.Program{ByName: map[string]*ir.Func{}}
	name := func(i int) string {
		if i == 0 {
			return "main"
		}
		return fmt.Sprintf("f%d", i)
	}
	for i := 0; i < depth; i++ {
		f := &ir.Func{Name: name(i), SSA: true}
		b := f.NewBlock()
		f.Entry = b
		r := f.NewReg()
		if i+1 < depth {
			b.Append(&ir.Instr{Op: ir.OpCall, Dst: r, Callee: name(i + 1)})
		} else {
			b.Append(&ir.Instr{Op: ir.OpConst, Dst: r, Const: 1})
		}
		b.Append(&ir.Instr{Op: ir.OpRet, A: r})
		f.Renumber()
		if err := f.BuildDefUse(); err != nil {
			t.Fatal(err)
		}
		p.Funcs = append(p.Funcs, f)
		p.ByName[f.Name] = f
	}
	return p
}

// TestDeepCallChain: a 10k-deep synthetic chain must survive callOrder (now
// an explicit-stack traversal) and a full Analyze without overflowing the
// stack.
func TestDeepCallChain(t *testing.T) {
	const depth = 10000
	p := chainProg(t, depth)

	order := callOrder(p)
	if len(order) != depth {
		t.Fatalf("callOrder returned %d functions, want %d", len(order), depth)
	}
	for i, f := range order {
		want := "main"
		if i > 0 {
			want = fmt.Sprintf("f%d", i)
		}
		if f.Name != want {
			t.Fatalf("callOrder[%d] = %s, want %s", i, f.Name, want)
		}
	}

	cfg := DefaultConfig()
	cfg.MaxPasses = 4 // the chain converges one level per pass; bound the walk
	res, err := Analyze(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Funcs) != depth {
		t.Fatalf("got results for %d functions, want %d", len(res.Funcs), depth)
	}
	if res.Stats.FuncsSkipped == 0 {
		t.Error("expected the dirty set to skip the stable tail of the chain")
	}
}

// TestCallOrderMatchesRecursive pins the iterative callOrder to the
// original recursive semantics: preorder DFS from main, callees in
// first-call order, unreached functions last in name order.
func TestCallOrderMatchesRecursive(t *testing.T) {
	prog := compileSrc(t, "order.mini", `
func d() { return 4; }
func c() { return d(); }
func b() { return c() + d(); }
func a() { return b(); }
func zz_unreached() { return 0; }
func an_unreached() { return 1; }
func main() { print(b()); print(a()); }
`)
	got := callOrder(prog)
	want := []string{"main", "b", "c", "d", "a", "an_unreached", "zz_unreached"}
	if len(got) != len(want) {
		t.Fatalf("got %d functions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i] {
			t.Errorf("callOrder[%d] = %s, want %s", i, got[i].Name, want[i])
		}
	}
}
