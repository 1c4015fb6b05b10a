package main

import (
	"fmt"
	"math"

	"vrp/internal/interp"
	"vrp/internal/ir"
)

// branchCounts is how often a branch went each way when the interpreter
// ran the program.
type branchCounts struct{ taken, notTaken int64 }

// profileOracle is the interpreter's record of one program's branches,
// keyed by function name and block ID. Compilation is deterministic, so
// a fresh compile of the same source has the same block IDs and its
// predictions can be scored against a profile taken in set-up.
type profileOracle map[string]map[int]branchCounts

func newProfileOracle(p *ir.Program, prof *interp.Profile) profileOracle {
	o := make(profileOracle, len(p.Funcs))
	for _, f := range p.Funcs {
		ec := prof.EdgeCount[f]
		m := make(map[int]branchCounts)
		for _, b := range f.Blocks {
			t := b.Terminator()
			if t == nil || t.Op != ir.OpBr || ec == nil {
				continue
			}
			m[b.ID] = branchCounts{taken: ec[b.Succs[0].ID], notTaken: ec[b.Succs[1].ID]}
		}
		o[f.Name] = m
	}
	return o
}

// contradictions lists the range-certain predictions (P(true) exactly 0
// or 1, decided by a range) that the profile shows going the other way.
func (o profileOracle) contradictions(preds []pred) []string {
	var bad []string
	for _, p := range preds {
		if p.source != "range" || (p.prob != 0 && p.prob != 1) {
			continue
		}
		c, ok := o[p.fn][p.block]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s:%d:%d: branch missing from the profile", p.fn, p.line, p.col))
			continue
		}
		if (p.prob == 1 && c.notTaken > 0) || (p.prob == 0 && c.taken > 0) {
			bad = append(bad, fmt.Sprintf("%s:%d:%d: certain P(true)=%g but the interpreter went %d/%d",
				p.fn, p.line, p.col, p.prob, c.taken, c.notTaken))
		}
	}
	return bad
}

// werr is the paper's weighted error: the mean absolute difference
// between predicted and observed probability, in percentage points, each
// executed branch weighted by its execution count. ok is false when no
// predicted branch executed.
func (o profileOracle) werr(preds []pred) (pp float64, ok bool) {
	var sum, weight float64
	for _, p := range preds {
		c := o[p.fn][p.block]
		n := float64(c.taken + c.notTaken)
		if n == 0 {
			continue
		}
		sum += n * 100 * math.Abs(p.prob-float64(c.taken)/n)
		weight += n
	}
	if weight == 0 {
		return 0, false
	}
	return sum / weight, true
}
