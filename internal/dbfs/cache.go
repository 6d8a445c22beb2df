package dbfs

// The membrane cache memoizes decoded *membrane.Membrane values so the read
// path — ded_load_membrane, the rights engine's per-record scans, and the
// consent mutators' read-modify-write — stops paying an inode walk plus a
// membrane decode for every membrane fetch. It is a plain sharded LRU keyed
// by pdid. Every membrane-affecting mutation, under the subject's shard
// write lock, either puts the new decoded value (membrane writes) or drops
// the entry (data updates, physical deletes, failed commits). Readers fill
// the cache under the shard read lock, so a fill always captures the
// freshest committed state: no writer can run between the disk read and the
// fill, and two racing readers fill the same value. A cached membrane is
// shared: get hands out the cached pointer and put keeps the pointer it is
// given, so every holder treats it as read-only. The two in-place mutators
// (MutateMembrane, Erase) clone before they change a membrane, and a caller
// hands put a membrane it no longer changes.
//
// The cache is sharded like the store's lock table (one cache shard per
// subject shard, same index), so cache maintenance for a record is
// serialized by the lock its mutators already hold and a hot read path never
// funnels through one global cache mutex. Capacity is bounded per shard with
// LRU eviction; hit/miss/eviction counters surface in dbfs.Stats. A nil
// *membraneCache is the disabled cache: get misses without counting, put
// and drop do nothing.

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/membrane"
)

// defaultMembraneCacheCap is the store-wide entry bound used when
// Config.MembraneCache is 0.
const defaultMembraneCacheCap = 8192

// cacheEntry is one cached decoded membrane.
type cacheEntry struct {
	pdid string
	m    *membrane.Membrane
}

// cacheShard is the per-subject-shard slice of the cache. lru holds
// *cacheEntry values, most recently used at the front.
type cacheShard struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	lru     *list.List
}

// membraneCache is the store-wide cache: one cache shard per subject
// shard (same count and index as the store's lock table) plus counters.
type membraneCache struct {
	shards    [DefaultShards]cacheShard
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// newMembraneCache builds a cache bounding roughly capacity entries across
// the subject shards.
func newMembraneCache(capacity int) *membraneCache {
	if capacity <= 0 {
		capacity = defaultMembraneCacheCap
	}
	per := (capacity + DefaultShards - 1) / DefaultShards
	c := &membraneCache{}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			cap:     per,
			entries: make(map[string]*list.Element),
			lru:     list.New(),
		}
	}
	return c
}

// get returns the cached membrane for pdid, shared and read-only, or nil on
// a miss. Caller holds the subject's shard lock (either side).
func (c *membraneCache) get(shard uint32, pdid string) *membrane.Membrane {
	if c == nil {
		return nil
	}
	cs := &c.shards[shard]
	cs.mu.Lock()
	el, ok := cs.entries[pdid]
	if !ok {
		cs.mu.Unlock()
		c.misses.Add(1)
		return nil
	}
	cs.lru.MoveToFront(el)
	m := el.Value.(*cacheEntry).m
	cs.mu.Unlock()
	c.hits.Add(1)
	return m
}

// put caches m as pdid's membrane: a read-side fill or a committed
// membrane write. Caller holds the subject's shard lock (the write side for
// a write), so m is the freshest committed state; from here on m is shared
// and must not change.
func (c *membraneCache) put(shard uint32, pdid string, m *membrane.Membrane) {
	if c == nil {
		return
	}
	cs := &c.shards[shard]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if el, ok := cs.entries[pdid]; ok {
		el.Value.(*cacheEntry).m = m
		cs.lru.MoveToFront(el)
		return
	}
	cs.entries[pdid] = cs.lru.PushFront(&cacheEntry{pdid: pdid, m: m})
	for cs.lru.Len() > cs.cap {
		cs.removeLocked(cs.lru.Back())
		c.evictions.Add(1)
	}
}

// drop forgets pdid's cached membrane, if any, so the next read decodes the
// stored state. Caller holds the shard write lock.
func (c *membraneCache) drop(shard uint32, pdid string) {
	if c == nil {
		return
	}
	cs := &c.shards[shard]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if el, ok := cs.entries[pdid]; ok {
		cs.removeLocked(el)
	}
}

func (cs *cacheShard) removeLocked(el *list.Element) {
	e := cs.lru.Remove(el).(*cacheEntry)
	delete(cs.entries, e.pdid)
}

// counters snapshots the hit/miss/eviction totals (all zero when the cache
// is disabled).
func (c *membraneCache) counters() (hits, misses, evictions uint64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}
