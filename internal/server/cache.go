package server

import (
	"bytes"
	"container/list"
	"sync"
)

// resultCache is a bounded LRU over serialized analysis responses, keyed
// by the vrange.HashBytes fingerprint of the submitted source. The value
// is the exact response body that was sent for the first request, so a
// hit is byte-identical to the miss that populated it — the cache can
// never change what a client observes, only how fast it arrives.
//
// The fingerprint only locates the entry; every hit is confirmed by
// comparing the stored source bytes against the request's. A 64-bit
// fingerprint collision — two different programs, one digest — is
// therefore a counted miss, never another program's analysis. On a colliding put
// the newer program takes the slot: with no confirm-failure history to
// arbitrate, recency is the only signal available, and either choice is
// correct (the loser simply keeps re-analyzing).
//
// Only plain analyses are cached: explain and telemetry requests carry
// per-run payloads, so they bypass the cache entirely (counted by the
// bypass metric, not as misses).
type resultCache struct {
	mu      sync.Mutex
	max     int
	entries map[uint64]*list.Element
	order   *list.List // front = most recently used
}

type cacheEntry struct {
	key  uint64
	src  []byte // the fingerprinted source; confirmed on every hit
	body []byte
}

// newResultCache returns a cache bounded to max entries; max <= 0
// disables caching (every get misses, put is a no-op).
func newResultCache(max int) *resultCache {
	if max <= 0 {
		return nil
	}
	return &resultCache{
		max:     max,
		entries: make(map[uint64]*list.Element, max),
		order:   list.New(),
	}
}

// get returns the cached body for key after confirming the stored source
// equals src, promoting the entry to most recently used. collided
// reports a fingerprint match whose source differed — a miss the caller
// counts in vrpd_cache_collisions_total.
func (c *resultCache) get(key uint64, src []byte) (body []byte, ok, collided bool) {
	if c == nil {
		return nil, false, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.entries[key]
	if !found {
		return nil, false, false
	}
	ent := el.Value.(*cacheEntry)
	if !bytes.Equal(ent.src, src) {
		return nil, false, true
	}
	c.order.MoveToFront(el)
	return ent.body, true, false
}

// put stores body under (key, src), evicting the least recently used
// entry when full. Returns the number of entries evicted (0 or 1) and
// whether the slot held a colliding different-source entry (which the
// new body replaces).
func (c *resultCache) put(key uint64, src, body []byte) (evicted int, collided bool) {
	if c == nil {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		if bytes.Equal(ent.src, src) {
			// Same source analyzed concurrently by two requests: keep the
			// first body (they are equal by determinism) and refresh.
			c.order.MoveToFront(el)
			return 0, false
		}
		// Fingerprint collision: the slot belongs to a different program.
		// Replace it so the newer program gets its own confirmed entry.
		ent.src = src
		ent.body = body
		c.order.MoveToFront(el)
		return 0, true
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, src: src, body: body})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		evicted++
	}
	return evicted, collided
}

// len returns the current entry count.
func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
