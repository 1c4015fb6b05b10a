package freq

import (
	"vrp/internal/dom"
	"vrp/internal/ir"
)

// ReferenceCompute solves the same equations as Compute by the original
// filter-every-block scan, into freshly allocated buffers. It is the
// differential-testing oracle for Compute: the CSR solver must match it
// bit-for-bit on every function (freq_diff_test.go), since both run the
// identical floating-point operation sequence. The back-edge set is
// recomputed from the function rather than taken from the factorization,
// so the oracle shares nothing with the path under test but the loops.
func (s *Solver) ReferenceCompute(prob BranchProbFunc) *Frequencies {
	s.prob = prob
	fr := &Frequencies{
		Block: make([]float64, len(s.f.Blocks)),
		Edge:  make([]float64, len(s.f.Edges)),
	}
	cp := make([]float64, len(s.f.Blocks))
	back := dom.BackEdges(s.f, dom.New(s.f))
	for _, l := range s.ls {
		s.refPropagate(fr, cp, back, l.Header, l)
		c := 0.0
		for _, be := range l.BackEdge {
			c += fr.Edge[be.ID]
		}
		if c > MaxCyclic {
			c = MaxCyclic
		}
		cp[l.Header.ID] = c
	}
	s.refPropagate(fr, cp, back, s.f.Entry, nil)
	s.prob = nil
	return fr
}

// refPropagate is the original propagation: scan every block of the
// function and filter by loop membership.
func (s *Solver) refPropagate(fr *Frequencies, cp []float64, back map[*ir.Edge]bool, head *ir.Block, region *dom.Loop) {
	for _, b := range s.f.Blocks {
		if region != nil && !region.Contains(b.ID) {
			continue
		}
		var freqv float64
		if b == head {
			freqv = 1
		} else {
			for _, pe := range b.Preds {
				if back[pe] || (region != nil && !region.Contains(pe.From.ID)) {
					continue
				}
				freqv += fr.Edge[pe.ID]
			}
			if s.isHdr[b.ID] {
				c := cp[b.ID]
				if c > MaxCyclic {
					c = MaxCyclic
				}
				freqv /= 1 - c
			}
		}
		fr.Block[b.ID] = freqv
		for _, se := range b.Succs {
			p, known := s.edgeProb(se)
			if !known {
				fr.Edge[se.ID] = 0
				continue
			}
			fr.Edge[se.ID] = freqv * p
		}
	}
}

// edgeProb: probability of leaving a block along one out-edge.
func (s *Solver) edgeProb(e *ir.Edge) (float64, bool) {
	t := e.From.Terminator()
	if t == nil {
		return 0, false
	}
	switch t.Op {
	case ir.OpJmp:
		return 1, true
	case ir.OpBr:
		p, known := s.prob(t)
		if !known {
			return 0, false
		}
		if e.Kind == ir.EdgeTrue {
			return p, true
		}
		return 1 - p, true
	}
	return 0, false
}
