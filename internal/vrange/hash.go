package vrange

import "math"

// FNV-1a constants (64-bit). fnvPrime doubles as the per-word multiplier
// of the word-at-a-time mix below.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix64 is the 64-bit murmur3 finalizer: a bijective scramble that spreads
// every input bit across the word. Feeding whole words through it (instead
// of byte-at-a-time FNV) cuts the cost of hashing a Value by roughly 8x.
func mix64(w uint64) uint64 {
	w ^= w >> 33
	w *= 0xff51afd7ed558ccd
	w ^= w >> 33
	w *= 0xc4ceb9fe1a85ec53
	w ^= w >> 33
	return w
}

// Hasher accumulates a canonical 64-bit hash over Values: each encoded
// word is scrambled with mix64 and folded in with an FNV-style
// xor-multiply, so the digest is position sensitive. The analysis driver
// fingerprints each function's interprocedural inputs (formal-parameter
// merges and consulted callee return ranges) with one Hasher so an
// unchanged input vector can skip re-analysis.
type Hasher struct {
	h uint64
}

// NewHasher returns a Hasher in its initial state.
func NewHasher() *Hasher { return &Hasher{h: fnvOffset} }

func (s *Hasher) word(w uint64) {
	s.h = (s.h ^ mix64(w)) * fnvPrime
}

// Add folds one Value into the hash. The encoding is canonical for
// canonicalized values: kind, range count, then every range's probability
// bit pattern, bounds and stride. Two Values hash equal whenever BitEqual
// reports them equal.
func (s *Hasher) Add(v Value) {
	s.word(uint64(v.kind))
	s.word(uint64(len(v.Ranges)))
	for _, r := range v.Ranges {
		s.word(math.Float64bits(r.Prob))
		s.word(uint64(int64(r.Lo.Var)))
		s.word(uint64(r.Lo.Const))
		s.word(uint64(int64(r.Hi.Var)))
		s.word(uint64(r.Hi.Const))
		s.word(uint64(r.Stride))
	}
}

// AddWord folds one raw 64-bit word into the hash. Composite keys (the
// per-function store's body × input × config fingerprint) use it to mix
// pre-hashed components without re-encoding them.
func (s *Hasher) AddWord(w uint64) { s.word(w) }

// AddBytes folds a byte string into the hash via its HashBytes digest
// (which folds the length last), so byte-string components of a
// composite key cannot collide with their prefix extensions.
func (s *Hasher) AddBytes(data []byte) { s.word(HashBytes(data)) }

// Sum returns the accumulated hash.
func (s *Hasher) Sum() uint64 { return s.h }

// Fingerprint returns the canonical hash of a single value.
func (v Value) Fingerprint() uint64 {
	h := NewHasher()
	h.Add(v)
	return h.Sum()
}

// HashValues fingerprints a value vector without allocating — the driver's
// per-function input-vector hash.
func HashValues(vs []Value) uint64 {
	h := Hasher{h: fnvOffset}
	for _, v := range vs {
		h.Add(v)
	}
	return h.Sum()
}

// HashBytes fingerprints an arbitrary byte string with the same
// word-at-a-time mix the Value hasher uses: eight bytes at a time through
// mix64, the length folded in last so prefixes do not collide with their
// zero-padded extensions. The analysis server keys its result cache on
// this digest of the submitted source.
func HashBytes(data []byte) uint64 {
	h := uint64(fnvOffset)
	n := len(data)
	for len(data) >= 8 {
		w := uint64(data[0]) | uint64(data[1])<<8 | uint64(data[2])<<16 | uint64(data[3])<<24 |
			uint64(data[4])<<32 | uint64(data[5])<<40 | uint64(data[6])<<48 | uint64(data[7])<<56
		h = (h ^ mix64(w)) * fnvPrime
		data = data[8:]
	}
	if len(data) > 0 {
		var w uint64
		for i, b := range data {
			w |= uint64(b) << (8 * i)
		}
		h = (h ^ mix64(w)) * fnvPrime
	}
	return (h ^ mix64(uint64(n))) * fnvPrime
}

// BitEqual reports exact structural equality: same kind, same ranges, and
// bit-identical probabilities. It is stricter than Equal (which tolerates
// probability drift below 1e-9); the driver's dirty-set test must be exact
// so that skipping a re-analysis provably cannot change any output bit.
func (v Value) BitEqual(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	if v.kind != Set {
		return true
	}
	if len(v.Ranges) != len(o.Ranges) {
		return false
	}
	for i := range v.Ranges {
		a, b := v.Ranges[i], o.Ranges[i]
		if a.Lo != b.Lo || a.Hi != b.Hi || a.Stride != b.Stride ||
			math.Float64bits(a.Prob) != math.Float64bits(b.Prob) {
			return false
		}
	}
	return true
}
