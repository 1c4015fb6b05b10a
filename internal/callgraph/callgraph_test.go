package callgraph

import (
	"fmt"
	"hash/fnv"
	"testing"

	"vrp/internal/corpus"
	"vrp/internal/ir"
	"vrp/internal/irgen"
	"vrp/internal/parser"
	"vrp/internal/sem"
)

// synth builds a program whose functions (in the given order) call the
// named callees; bodies are a single block of calls followed by a return.
func synth(order []string, calls map[string][]string) *ir.Program {
	p := &ir.Program{ByName: map[string]*ir.Func{}}
	for _, name := range order {
		f := &ir.Func{Name: name}
		b := f.NewBlock()
		f.Entry = b
		for _, callee := range calls[name] {
			r := f.NewReg()
			b.Append(&ir.Instr{Op: ir.OpCall, Dst: r, Callee: callee})
		}
		b.Append(&ir.Instr{Op: ir.OpRet})
		p.Funcs = append(p.Funcs, f)
		p.ByName[name] = f
	}
	return p
}

// checkEdgeOrder asserts the numbering property the driver's pass order
// relies on: every call edge between distinct SCCs goes from a lower SCC
// id to a strictly higher one, so callers run before their callees.
func checkEdgeOrder(t *testing.T, label string, g *Graph) {
	t.Helper()
	for fi, cs := range g.Callees {
		for _, ci := range cs {
			if a, b := g.SCCID[fi], g.SCCID[ci]; a != b && a >= b {
				t.Errorf("%s: call %s→%s goes from SCC %d to SCC %d, want a higher id",
					label, g.Funcs[fi].Name, g.Funcs[ci].Name, a, b)
			}
		}
	}
}

func TestSCCOrder(t *testing.T) {
	// main → {a, b}; a → c; b → c; c → d ↔ e (mutual recursion); f is
	// unreached; g calls itself.
	p := synth(
		[]string{"main", "a", "b", "c", "d", "e", "f", "g"},
		map[string][]string{
			"main": {"a", "b"},
			"a":    {"c"},
			"b":    {"c", "missing"}, // unknown callee is dropped
			"c":    {"d"},
			"d":    {"e"},
			"e":    {"d"},
			"g":    {"g"},
		})
	g := Build(p)

	if len(g.SCCs) != 7 { // d+e collapse into one SCC
		t.Fatalf("got %d SCCs, want 7", len(g.SCCs))
	}
	// d and e share an SCC; it must be marked recursive, as must g.
	di, ei := g.Index[p.ByName["d"]], g.Index[p.ByName["e"]]
	if g.SCCID[di] != g.SCCID[ei] {
		t.Errorf("d and e in different SCCs")
	}
	if !g.Recursive(g.SCCID[di]) {
		t.Errorf("d/e SCC not marked recursive")
	}
	if !g.Recursive(g.SCCID[g.Index[p.ByName["g"]]]) {
		t.Errorf("self-loop g not marked recursive")
	}
	if g.Recursive(g.SCCID[g.Index[p.ByName["a"]]]) {
		t.Errorf("a wrongly marked recursive")
	}

	// Ids follow call depth, then smallest member: main, f, g have no
	// callers (depth 0), a/b depth 1, c depth 2, d/e depth 3.
	wants := map[string]int{"main": 0, "f": 1, "g": 2, "a": 3, "b": 4, "c": 5, "d": 6, "e": 6}
	for name, want := range wants {
		if got := g.SCCID[g.Index[p.ByName[name]]]; got != want {
			t.Errorf("SCCID(%s) = %d, want %d", name, got, want)
		}
	}
	checkEdgeOrder(t, "synth", g)
}

// TestCorpusSCCIDs pins the SCC numbering on the whole corpus: SCC ids
// appear in diagnostics, vrpd's JSON and the driver's visit order, so a
// change to condense must not renumber them.
func TestCorpusSCCIDs(t *testing.T) {
	h := fnv.New64a()
	for _, cp := range corpus.All() {
		ast, err := parser.Parse(cp.Name, cp.Source)
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
		g := Build(prog)
		checkEdgeOrder(t, cp.Name, g)
		fmt.Fprintln(h, cp.Name, g.SCCID)
	}
	const want uint64 = 0xfa78ba87ebe707cd
	if got := h.Sum64(); got != want {
		t.Errorf("corpus SCC id digest = %#x, want %#x", got, want)
	}
}

func TestBuildDeterministic(t *testing.T) {
	order := []string{"main", "x", "y", "z"}
	calls := map[string][]string{"main": {"y", "x"}, "x": {"z"}, "y": {"z"}}
	a := Build(synth(order, calls))
	b := Build(synth(order, calls))
	if fmt.Sprint(a.SCCs, a.SCCID) != fmt.Sprint(b.SCCs, b.SCCID) {
		t.Fatalf("Build not deterministic:\n%v %v\n%v %v", a.SCCs, a.SCCID, b.SCCs, b.SCCID)
	}
}

// TestDeepChain guards the iterative Tarjan: a 10k-deep call chain must not
// overflow the stack, and must put every function in its own SCC, numbered
// by its depth in the chain.
func TestDeepChain(t *testing.T) {
	const depth = 10000
	order := make([]string, depth)
	calls := map[string][]string{}
	for i := 0; i < depth; i++ {
		order[i] = fmt.Sprintf("f%d", i)
		if i+1 < depth {
			calls[order[i]] = []string{fmt.Sprintf("f%d", i+1)}
		}
	}
	order[0] = "main"
	calls["main"] = []string{"f1"}
	g := Build(synth(order, calls))
	if len(g.SCCs) != depth {
		t.Fatalf("got %d SCCs, want %d", len(g.SCCs), depth)
	}
	for fi, id := range g.SCCID {
		if id != fi {
			t.Fatalf("function %d in SCC %d, want %d", fi, id, fi)
		}
	}
}
