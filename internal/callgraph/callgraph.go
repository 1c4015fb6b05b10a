// Package callgraph builds the static call graph of an ir.Program and its
// strongly-connected-component condensation, with SCCs numbered in a
// topological order of the condensation: every call edge between distinct
// SCCs goes from a lower SCC id to a higher one. The analysis driver runs
// each pass of the §3.7 interprocedural fixpoint in SCC id order, so a
// function's callers (which supply its formal-parameter merges) run before
// it within the pass.
//
// Everything here is deterministic: functions carry dense indices in
// program order, SCC member lists are sorted, SCC ids follow call depth,
// and every traversal uses an explicit stack so that deep call chains
// cannot overflow the goroutine stack.
package callgraph

import (
	"sort"

	"vrp/internal/ir"
)

// Graph is a program's call graph plus its SCC condensation. All slices
// indexed by "function index" use the dense program order of Prog.Funcs;
// "SCC id" indexes SCCs, numbered by condensation depth (the longest call
// path from a root SCC), then by smallest member function index.
type Graph struct {
	Prog  *ir.Program
	Funcs []*ir.Func       // function index → function (program order)
	Index map[*ir.Func]int // function → dense index

	// Callees[i] lists the distinct known callees of function i, sorted
	// ascending; calls to names absent from Prog.ByName are dropped.
	Callees [][]int
	// Callers[i] is the inverse adjacency, sorted ascending.
	Callers [][]int

	SCCID []int   // function index → SCC id
	SCCs  [][]int // SCC id → member function indices, sorted ascending
}

// Build constructs the call graph and its condensation.
func Build(p *ir.Program) *Graph {
	n := len(p.Funcs)
	g := &Graph{
		Prog:    p,
		Funcs:   make([]*ir.Func, n),
		Index:   make(map[*ir.Func]int, n),
		Callees: make([][]int, n),
		Callers: make([][]int, n),
	}
	for i, f := range p.Funcs {
		g.Funcs[i] = f
		g.Index[f] = i
	}
	for i, f := range p.Funcs {
		seen := map[int]bool{}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall {
					continue
				}
				callee := p.ByName[in.Callee]
				if callee == nil {
					continue
				}
				ci := g.Index[callee]
				if !seen[ci] {
					seen[ci] = true
					g.Callees[i] = append(g.Callees[i], ci)
				}
			}
		}
		sort.Ints(g.Callees[i])
	}
	for i, cs := range g.Callees {
		for _, c := range cs {
			g.Callers[c] = append(g.Callers[c], i)
		}
	}
	for i := range g.Callers {
		sort.Ints(g.Callers[i])
	}
	g.condense()
	return g
}

// condense runs an iterative Tarjan SCC pass, then computes each SCC's
// depth (its longest-path distance from the condensation roots) and
// renumbers SCCs by depth, so every inter-SCC call edge goes from a lower
// id to a strictly higher one.
func (g *Graph) condense() {
	n := len(g.Funcs)
	// --- iterative Tarjan ---
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]int, n)
	for i := range index {
		index[i], comp[i] = unvisited, unvisited
	}
	var (
		stack   []int // Tarjan value stack
		sccs    [][]int
		counter int
	)
	type frame struct {
		v  int
		ei int // next edge to examine in Callees[v]
	}
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames := []frame{{v: root}}
		index[root], low[root] = counter, counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			v := fr.v
			if fr.ei < len(g.Callees[v]) {
				w := g.Callees[v][fr.ei]
				fr.ei++
				if index[w] == unvisited {
					index[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			// v is finished: maybe the root of a new SCC.
			if low[v] == index[v] {
				var members []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = len(sccs)
					members = append(members, w)
					if w == v {
						break
					}
				}
				sort.Ints(members)
				sccs = append(sccs, members)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}

	// --- depths over the condensation ---
	// Tarjan emits SCCs in reverse topological order (callees before their
	// callers), so iterating the emission order backwards visits callers
	// first; one relaxation sweep computes longest-path depth.
	depth := make([]int, len(sccs))
	for s := len(sccs) - 1; s >= 0; s-- {
		d := depth[s]
		for _, v := range sccs[s] {
			for _, w := range g.Callees[v] {
				if t := comp[w]; t != s && depth[t] < d+1 {
					depth[t] = d + 1
				}
			}
		}
	}

	// --- renumber SCCs by depth, then by smallest member function index
	// (members are sorted, so members[0] is it) ---
	order := make([]int, len(sccs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := order[a], order[b]
		if depth[sa] != depth[sb] {
			return depth[sa] < depth[sb]
		}
		return sccs[sa][0] < sccs[sb][0]
	})
	g.SCCs = make([][]int, len(sccs))
	g.SCCID = make([]int, n)
	for newID, oldID := range order {
		g.SCCs[newID] = sccs[oldID]
		for _, v := range sccs[oldID] {
			g.SCCID[v] = newID
		}
	}
}

// Recursive reports whether the SCC is cyclic: more than one member, or a
// single member that calls itself.
func (g *Graph) Recursive(scc int) bool {
	ms := g.SCCs[scc]
	if len(ms) > 1 {
		return true
	}
	v := ms[0]
	for _, w := range g.Callees[v] {
		if w == v {
			return true
		}
	}
	return false
}

// NumFuncs returns the number of functions in the graph.
func (g *Graph) NumFuncs() int { return len(g.Funcs) }
