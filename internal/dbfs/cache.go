package dbfs

// The membrane cache memoizes decoded *membrane.Membrane values so the read
// path — ded_load_membrane, the rights engine's per-record scans, and the
// consent mutators' read-modify-write — stops paying an inode walk plus a
// membrane decode for every membrane fetch. Entries are keyed by pdid and
// stamped with a per-record version; every membrane-affecting mutation bumps
// the version under the subject's shard write lock and either writes the new
// decoded value through (membrane writes) or drops the entry (data updates,
// physical deletes). Readers fill the cache under the shard read lock, so a
// fill always captures the freshest committed state: no writer can run
// concurrently, and two racing readers fill the same value. A cached
// membrane is shared: get hands out the cached pointer and store keeps the
// pointer it is given, so every holder treats it as read-only. The two
// in-place mutators (MutateMembrane, Erase) clone before they change a
// membrane, and a caller hands store a membrane it no longer changes.
//
// The cache is sharded like the store's lock table (one cache shard per
// subject shard, same index), so cache maintenance for a record is
// serialized by the lock its mutators already hold and a hot read path never
// funnels through one global cache mutex. Capacity is bounded per shard with
// LRU eviction; hit/miss/eviction counters surface in dbfs.Stats.

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/membrane"
)

// defaultMembraneCacheCap is the store-wide entry bound used when
// Config.MembraneCache is 0.
const defaultMembraneCacheCap = 8192

// cacheEntry is one cached decoded membrane with the record version it was
// captured at.
type cacheEntry struct {
	pdid string
	ver  uint64
	m    *membrane.Membrane
}

// cacheShard is the per-subject-shard slice of the cache. lru holds
// *cacheEntry values, most recently used at the front.
type cacheShard struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	lru     *list.List
	// ver is the per-record mutation counter. It outlives evictions (an
	// evicted entry re-fills at the current version) and is deleted only
	// when the record itself is physically deleted, so it is bounded by the
	// shard's live record count.
	ver map[string]uint64
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
			ver:     make(map[string]uint64),
		}
	}
	return c
}

// get returns the cached membrane for pdid, shared and read-only, or nil on
// a miss (absent, stale-versioned, or evicted). Caller holds the subject's
// shard lock (either side).
func (c *membraneCache) get(shard uint32, pdid string) *membrane.Membrane {
	cs := &c.shards[shard]
	cs.mu.Lock()
	el, ok := cs.entries[pdid]
	if ok {
		e := el.Value.(*cacheEntry)
		if e.ver == cs.ver[pdid] {
			cs.lru.MoveToFront(el)
			m := e.m
			cs.mu.Unlock()
			c.hits.Add(1)
			return m
		}
		// Version moved under us (a mutator invalidated without writing
		// through); drop the stale entry.
		cs.removeLocked(el)
	}
	cs.mu.Unlock()
	c.misses.Add(1)
	return nil
}

// fill records a read-side miss resolution: m, freshly decoded, is cached at
// the record's current version. Caller holds the subject's shard lock, so m
// is the freshest committed state.
func (c *membraneCache) fill(shard uint32, pdid string, m *membrane.Membrane) {
	c.store(shard, pdid, m, false)
}

// writeThrough records a committed membrane write: the record's version is
// bumped and the new value cached. Caller holds the shard write lock.
func (c *membraneCache) writeThrough(shard uint32, pdid string, m *membrane.Membrane) {
	c.store(shard, pdid, m, true)
}

// store caches m itself; from here on m is shared and must not change.
func (c *membraneCache) store(shard uint32, pdid string, m *membrane.Membrane, bump bool) {
	cs := &c.shards[shard]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if bump {
		cs.ver[pdid]++
	}
	e := &cacheEntry{pdid: pdid, ver: cs.ver[pdid], m: m}
	if el, ok := cs.entries[pdid]; ok {
		el.Value = e
		cs.lru.MoveToFront(el)
		return
	}
	cs.entries[pdid] = cs.lru.PushFront(e)
	for cs.lru.Len() > cs.cap {
		cs.removeLocked(cs.lru.Back())
		c.evictions.Add(1)
	}
}

// invalidate bumps the record's version and drops any cached entry, without
// supplying a replacement (data updates, whose membrane bytes are unchanged
// but whose record state moved). Caller holds the shard write lock.
func (c *membraneCache) invalidate(shard uint32, pdid string) {
	cs := &c.shards[shard]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.ver[pdid]++
	if el, ok := cs.entries[pdid]; ok {
		cs.removeLocked(el)
	}
}

// drop forgets a physically deleted record entirely (entry and version).
// Caller holds the shard write lock.
func (c *membraneCache) drop(shard uint32, pdid string) {
	cs := &c.shards[shard]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if el, ok := cs.entries[pdid]; ok {
		cs.removeLocked(el)
	}
	delete(cs.ver, pdid)
}

func (cs *cacheShard) removeLocked(el *list.Element) {
	e := cs.lru.Remove(el).(*cacheEntry)
	delete(cs.entries, e.pdid)
}

// counters snapshots the hit/miss/eviction totals.
func (c *membraneCache) counters() (hits, misses, evictions uint64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}
