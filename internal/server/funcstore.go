package server

import (
	"container/list"
	"sync"

	corevrp "vrp/internal/vrp"
)

// funcStore is vrpd's implementation of the analysis driver's
// cross-request per-function result store (vrp.FuncStore): a bounded LRU
// of StoredFunc records keyed by (body fingerprint × interprocedural
// input fingerprint × config fingerprint). It is what makes the server
// incremental at function granularity — a request that edits one
// function of a program the store has seen re-analyzes only the dirty
// cone and splices everything else.
//
// Collision discipline matches the result cache: the
// fingerprint triple only locates a bucket, and every candidate is
// confirmed with FuncKey.SameKey (body bytes, callee-name binding,
// bit-equal input values) before it is served. True fingerprint
// collisions coexist in one bucket — they are counted, never unified
// and never evicted by each other.
type funcStore struct {
	mu      sync.Mutex
	max     int
	entries map[funcStoreFP]*list.Element // fp triple → bucket element
	order   *list.List                    // front = most recently used; values are *funcStoreBucket

	m *serverMetrics // nil in unit tests
}

type funcStoreFP struct{ body, input, config uint64 }

// funcStoreBucket holds every entry sharing one fingerprint triple. One
// entry is overwhelmingly the common case; extra slots exist only under
// true 64-bit collisions. The bucket is the LRU unit: colliding entries
// live and die together, which keeps the recency list simple without
// letting a collision evict its sibling.
type funcStoreBucket struct {
	fp      funcStoreFP
	keys    []*corevrp.FuncKey
	results []*corevrp.StoredFunc
}

// DefaultFuncStoreEntries bounds the store when Config.FuncStoreEntries
// is zero. Sized for a handful of warm multi-hundred-function programs:
// entries are per (function × distinct input snapshot), and one 56-kernel
// generated program populates ~120 of them.
const DefaultFuncStoreEntries = 4096

// newFuncStore returns a store bounded to max buckets; max <= 0 disables
// the store (New then leaves the server's field nil).
func newFuncStore(max int, m *serverMetrics) *funcStore {
	if max <= 0 {
		return nil
	}
	return &funcStore{
		max:     max,
		entries: make(map[funcStoreFP]*list.Element, max),
		order:   list.New(),
		m:       m,
	}
}

func (s *funcStore) fpOf(key *corevrp.FuncKey) funcStoreFP {
	return funcStoreFP{body: key.BodyFP, input: key.InputFP, config: key.ConfigFP}
}

// Lookup implements vrp.FuncStore: fingerprint probe, then full-key
// confirmation of every bucket entry. A fingerprint match with no
// confirmed entry counts as a collision and reports a miss.
func (s *funcStore) Lookup(key *corevrp.FuncKey) (*corevrp.StoredFunc, bool) {
	s.mu.Lock()
	el, ok := s.entries[s.fpOf(key)]
	if !ok {
		s.mu.Unlock()
		if s.m != nil {
			s.m.funcstoreMisses.Inc()
		}
		return nil, false
	}
	b := el.Value.(*funcStoreBucket)
	for i, k := range b.keys {
		if k.SameKey(key) {
			sf := b.results[i]
			s.order.MoveToFront(el)
			s.mu.Unlock()
			if s.m != nil {
				s.m.funcstoreHits.Inc()
			}
			return sf, true
		}
	}
	s.mu.Unlock()
	if s.m != nil {
		s.m.funcstoreCollisions.Inc()
		s.m.funcstoreMisses.Inc()
	}
	return nil, false
}

// Store implements vrp.FuncStore. The driver hands over detached keys
// and records, so retaining them is safe. A colliding same-fingerprint
// different-key store appends to the bucket (counted); a same-key store
// keeps the first record — by determinism the two are bit-identical.
func (s *funcStore) Store(key *corevrp.FuncKey, sf *corevrp.StoredFunc) {
	var evicted int64
	collided := false
	s.mu.Lock()
	fp := s.fpOf(key)
	if el, ok := s.entries[fp]; ok {
		b := el.Value.(*funcStoreBucket)
		for _, k := range b.keys {
			if k.SameKey(key) {
				s.order.MoveToFront(el)
				s.mu.Unlock()
				return
			}
		}
		b.keys = append(b.keys, key)
		b.results = append(b.results, sf)
		s.order.MoveToFront(el)
		collided = true
	} else {
		b := &funcStoreBucket{fp: fp, keys: []*corevrp.FuncKey{key}, results: []*corevrp.StoredFunc{sf}}
		s.entries[fp] = s.order.PushFront(b)
		for s.order.Len() > s.max {
			oldest := s.order.Back()
			s.order.Remove(oldest)
			ob := oldest.Value.(*funcStoreBucket)
			delete(s.entries, ob.fp)
			evicted += int64(len(ob.keys))
		}
	}
	s.mu.Unlock()
	if s.m != nil {
		if collided {
			s.m.funcstoreCollisions.Inc()
		}
		if evicted > 0 {
			s.m.funcstoreEvictions.Add(evicted)
		}
	}
}

// len returns the current bucket count.
func (s *funcStore) len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}
