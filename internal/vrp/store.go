package vrp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"vrp/internal/ir"
	"vrp/internal/vrange"
)

// The per-function result store extends the driver's within-run dirty-set
// skipping (driver.go) across analysis runs: Patterson's fixpoint is
// per-procedure over the call graph, so one engine run is a deterministic
// function of exactly three things — the function's IR body, the frozen
// interprocedural input snapshot, and the configuration. A store entry
// keys on all three and replays the run's outputs (values, frequencies,
// branch probabilities, effort counters), making a request that edits one
// function of a large program re-analyze only its dirty cone while every
// clean function is spliced from the store, bit-identical to a cold run.
//
// Collision discipline: the 64-bit fingerprints only locate a bucket;
// every hit is confirmed against the stored key material (canonical body
// bytes, callee-name binding, bit-equal input values) before anything is
// served. A fingerprint collision is counted by the implementation and
// treated as a miss, never unified.
//
// Two subtleties the key construction must (and does) handle:
//
//   - The engine resolves callees by name, but the driver's input vector
//     orders callee returns by program function index — an ordering the
//     body alone does not determine. The key therefore records the
//     callee-name list alongside the input values; confirmation checks
//     names, so the same body compiled into a differently-ordered
//     program can never alias another entry's inputs positionally.
//   - Source positions are excluded from the body encoding: a one-line
//     edit shifts every later function's positions, and including them
//     would invalidate the whole store on each edit. Spliced predictions
//     take positions from the request's own IR.

// FuncStore is the cross-request per-function result store consulted by
// the driver when Config.FuncStore is set. Implementations must be safe
// for concurrent use and must confirm the full key (FuncKey.SameKey)
// before reporting a hit — fingerprint equality alone is not a hit.
// Entries must only be shared between runs with an identical Config
// (ConfigFP guards the comparable fields; the Fallback function cannot
// be fingerprinted, so callers with custom fallbacks must not share a
// store across them).
type FuncStore interface {
	// Lookup returns the stored result for key, or false. Implementations
	// must not retain key.
	Lookup(key *FuncKey) (*StoredFunc, bool)
	// Store records sf under key. The driver passes a detached key and
	// record (no aliasing into live analysis state); implementations may
	// retain both.
	Store(key *FuncKey, sf *StoredFunc)
}

// FuncKey identifies one function-level analysis result: the canonical
// body encoding, the interprocedural input snapshot bound to callee
// names, and the configuration fingerprint.
type FuncKey struct {
	BodyFP   uint64 // fingerprint of Body
	InputFP  uint64 // fingerprint of Callees+Inputs
	ConfigFP uint64 // fingerprint of the engine-relevant Config fields

	Body    []byte         // canonical position-free body encoding (EncodeFuncBody)
	Callees []string       // callee names in input-vector order: Inputs[len(params)+i] is Callees[i]'s return
	Inputs  []vrange.Value // formal-parameter merges, then callee returns
}

// SameKey reports full key equality: fingerprints, body bytes, callee
// binding and bit-identical input values. This is the confirm step that
// makes fingerprint collisions harmless.
func (k *FuncKey) SameKey(o *FuncKey) bool {
	if k.BodyFP != o.BodyFP || k.InputFP != o.InputFP || k.ConfigFP != o.ConfigFP {
		return false
	}
	if !bytes.Equal(k.Body, o.Body) {
		return false
	}
	if len(k.Callees) != len(o.Callees) {
		return false
	}
	for i := range k.Callees {
		if k.Callees[i] != o.Callees[i] {
			return false
		}
	}
	return bitEqualVec(k.Inputs, o.Inputs)
}

// StoredBranch is one conditional branch's prediction, addressed by the
// instruction's ordinal in a deterministic walk of the function (blocks
// in order, instructions in block order).
type StoredBranch struct {
	Ord    int32
	Prob   float64
	Source PredictionSource
}

// StoredFunc is one engine run's portable output: everything the driver
// needs to splice the function into a later analysis without re-running
// the engine, plus the run's effort counters so warm Stats replay
// bit-identical to a cold run.
type StoredFunc struct {
	Vals     []vrange.Value // per register, detached
	EdgeFreq []float64      // per Edge.ID
	BlkFreq  []float64      // per Block.ID (pre-clamp; splice re-applies the MaxFreq clamp)
	Branches []StoredBranch
	Derived  []int32 // ordinals of φs whose value came from a §3.6 derivation

	// Engine effort replayed into the splicing run's Stats.
	// SubOps covers only the engine's own sub-operations: the input
	// snapshot and interprocedural update are re-executed live on splice
	// and account for their own.
	ExprEvals     int64
	PhiEvals      int64
	FlowVisits    int64
	DerivedLoops  int64
	FailedDerives int64
	SubOps        int64
}

// EncodeFuncBody renders f's analysis-relevant structure into canonical
// bytes: opcodes, registers, constants, φ/call arguments, CFG shape
// (blocks, edge endpoints and kinds, successor/predecessor edge order)
// and, per call, the callee name plus whether the program resolves it
// (an unresolved callee evaluates to ⊥, so resolvability is part of the
// transfer function). Source positions and variable names are excluded
// on purpose — they do not influence any analysis output bit.
func EncodeFuncBody(f *ir.Func, prog *ir.Program) []byte {
	// Pre-size roughly: a dozen varints per instruction.
	buf := make([]byte, 0, 16*f.NumInstrs()+64)
	u := func(v uint64) { buf = binary.AppendUvarint(buf, v) }
	i64 := func(v int64) { buf = binary.AppendVarint(buf, v) }
	str := func(s string) { u(uint64(len(s))); buf = append(buf, s...) }

	u(uint64(f.NumRegs))
	u(uint64(len(f.Params)))
	for _, p := range f.Params {
		u(uint64(p))
	}
	u(uint64(f.Entry.ID))
	u(uint64(len(f.Edges)))
	for _, e := range f.Edges {
		u(uint64(e.From.ID))
		u(uint64(e.To.ID))
		u(uint64(e.Kind))
	}
	u(uint64(len(f.Blocks)))
	for _, b := range f.Blocks {
		u(uint64(b.ID))
		u(uint64(len(b.Succs)))
		for _, e := range b.Succs {
			u(uint64(e.ID))
		}
		u(uint64(len(b.Preds)))
		for _, e := range b.Preds {
			u(uint64(e.ID))
		}
		u(uint64(len(b.Instrs)))
		for _, in := range b.Instrs {
			u(uint64(in.Op))
			u(uint64(in.Dst))
			u(uint64(in.A))
			u(uint64(in.B))
			u(uint64(in.Arr))
			i64(in.Const)
			u(uint64(in.BinOp))
			i64(int64(in.ArgIndex))
			u(uint64(in.Parent))
			u(uint64(len(in.Args)))
			for _, a := range in.Args {
				u(uint64(a))
			}
			if in.Op == ir.OpCall {
				str(in.Callee)
				resolved := uint64(0)
				if prog != nil && prog.ByName[in.Callee] != nil {
					resolved = 1
				}
				u(resolved)
			}
		}
	}
	return buf
}

// configFingerprint digests the Config fields that influence analysis
// output bits. Workers (ignored), Telemetry and Trace/TraceParent are
// excluded (observers never feed back into the lattice); a custom Fallback is marked but cannot be distinguished
// from another custom Fallback — see the FuncStore contract.
func configFingerprint(cfg Config) uint64 {
	h := vrange.NewHasher()
	h.AddBytes([]byte(fmt.Sprintf("%#v", cfg.Range)))
	flags := uint64(0)
	if cfg.Derivation {
		flags |= 1
	}
	if cfg.Interprocedural {
		flags |= 2
	}
	if cfg.FlowFirst {
		flags |= 4
	}
	if cfg.Fallback != nil {
		flags |= 8
	}
	if cfg.noSkip {
		flags |= 16
	}
	h.AddWord(flags)
	h.AddWord(uint64(cfg.MaxPasses))
	h.AddWord(uint64(cfg.RecWidenAfter))
	h.AddWord(uint64(cfg.MaxEvals))
	h.AddWord(uint64(cfg.MaxEngineSteps))
	h.AddWord(math.Float64bits(cfg.FreqEpsilon))
	h.AddWord(math.Float64bits(cfg.MaxFreq))
	return h.Sum()
}

// bodyKey returns fi's canonical body encoding and fingerprint, computed
// once per driver and cached.
func (d *driver) bodyKey(fi int) ([]byte, uint64) {
	if d.bodyEnc[fi] == nil {
		d.bodyEnc[fi] = EncodeFuncBody(d.cg.Funcs[fi], d.prog)
		d.bodyFPs[fi] = vrange.HashBytes(d.bodyEnc[fi])
	}
	return d.bodyEnc[fi], d.bodyFPs[fi]
}

// funcKey assembles fi's store key for the input snapshot in. The input
// fingerprint binds callee names to their positions, so positional
// aliasing across differently-ordered programs is impossible.
func (d *driver) funcKey(fi int, in *funcInputs) *FuncKey {
	body, bodyFP := d.bodyKey(fi)
	callees := d.cg.Callees[fi]
	names := make([]string, len(callees))
	h := vrange.NewHasher()
	for i, ci := range callees {
		names[i] = d.cg.Funcs[ci].Name
		h.AddBytes([]byte(names[i]))
	}
	for _, v := range in.vec {
		h.Add(v)
	}
	return &FuncKey{
		BodyFP:   bodyFP,
		InputFP:  h.Sum(),
		ConfigFP: d.configFP,
		Body:     body,
		Callees:  names,
		Inputs:   in.vec,
	}
}

// encodeStored builds the portable record of one successful engine run.
// The arrays are copied: the engine's alias recycled scratch, and
// demoteUnconverged may later rewrite fr.Val in place; a stored record
// must be immune to both. The values themselves are immutable and shared.
func encodeStored(f *ir.Func, fr *FuncResult, blkFreq []float64, st Stats, subOps int64) *StoredFunc {
	sf := &StoredFunc{
		Vals:          slices.Clone(fr.Val),
		EdgeFreq:      append([]float64(nil), fr.EdgeFreq...),
		BlkFreq:       append([]float64(nil), blkFreq...),
		ExprEvals:     st.ExprEvals,
		PhiEvals:      st.PhiEvals,
		FlowVisits:    st.FlowVisits,
		DerivedLoops:  st.DerivedLoops,
		FailedDerives: st.FailedDerives,
		SubOps:        subOps,
	}
	ord := int32(0)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if p, ok := fr.BranchProb[in]; ok {
				sf.Branches = append(sf.Branches, StoredBranch{Ord: ord, Prob: p, Source: fr.BranchSource[in]})
			}
			if fr.Derived[in] {
				sf.Derived = append(sf.Derived, ord)
			}
			ord++
		}
	}
	return sf
}

// spliceStored reconstructs a FuncResult (and the blockFreq closure
// ip.update needs) from a stored record, against the current request's
// own IR. Defensive length/ordinal checks turn any shape mismatch into
// a miss — with body confirmation they cannot fire, but a store bug must
// degrade to a fresh engine run, never to corrupt output.
func (d *driver) spliceStored(fi int, sf *StoredFunc) (*FuncResult, func(*ir.Block) float64, bool) {
	f := d.cg.Funcs[fi]
	if len(sf.Vals) != f.NumRegs || len(sf.EdgeFreq) != len(f.Edges) || len(sf.BlkFreq) != len(f.Blocks) {
		return nil, nil, false
	}
	n := int32(f.NumInstrs())
	for _, br := range sf.Branches {
		if br.Ord < 0 || br.Ord >= n {
			return nil, nil, false
		}
	}
	for _, o := range sf.Derived {
		if o < 0 || o >= n {
			return nil, nil, false
		}
	}
	fr := &FuncResult{
		Fn:           f,
		Val:          append([]vrange.Value(nil), sf.Vals...),
		EdgeFreq:     append([]float64(nil), sf.EdgeFreq...),
		BranchProb:   make(map[*ir.Instr]float64, len(sf.Branches)),
		BranchSource: make(map[*ir.Instr]PredictionSource, len(sf.Branches)),
		Derived:      make(map[*ir.Instr]bool, len(sf.Derived)),
	}
	bi, di := 0, 0
	ord := int32(0)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for bi < len(sf.Branches) && sf.Branches[bi].Ord == ord {
				fr.BranchProb[in] = sf.Branches[bi].Prob
				fr.BranchSource[in] = sf.Branches[bi].Source
				bi++
			}
			for di < len(sf.Derived) && sf.Derived[di] == ord {
				fr.Derived[in] = true
				di++
			}
			ord++
		}
	}
	blk := sf.BlkFreq
	bf := func(b *ir.Block) float64 {
		if b == f.Entry {
			return 1
		}
		s := blk[b.ID]
		if s > d.cfg.MaxFreq {
			return d.cfg.MaxFreq
		}
		return s
	}
	return fr, bf, true
}
