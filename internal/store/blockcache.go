package store

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// DefaultBlockCacheBytes is the shared decoded-block cache capacity an
// engine opens with; SetBlockCacheCapacity resizes it (0 disables
// storage while keeping the counters live).
const DefaultBlockCacheBytes int64 = 32 << 20

// blockKey addresses one decoded block: the segment's process-unique id
// plus the block index. Segment ids are never reused within a process,
// so a compaction that replaces a run can never alias a stale entry
// onto the new segment's blocks.
type blockKey struct {
	seg uint64
	bi  int
}

// blockEntry is one cached decoded block. rows and keys are immutable —
// segments are written once, and every reader treats decoded rows as
// read-only — which is what makes sharing them across queries safe.
type blockEntry struct {
	key  blockKey
	rows []Row
	keys []string
	size int64
}

// blockCache is the engine-wide decoded-block LRU: one per DB, shared
// by every shard and table, bounded by bytes rather than entries so a
// few huge blocks cannot blow the budget a thousand small ones fit in.
// Hot point lookups and index resolutions serve decoded rows straight
// from memory; the first read of a block pays disk + CRC + decode and
// populates it for everyone.
//
// Invariants:
//   - An entry is only ever read through a pinned *segment, so a hit
//     can never observe a closed file or serve a row from a segment
//     the reader's snapshot does not hold.
//   - unref's last drop calls dropSegment, so an obsolete segment's
//     entries die with its last snapshot pin — the cache holds no
//     memory (and implies no fds) for segments nothing can read.
type blockCache struct {
	mu  sync.Mutex
	cap int64
	sz  int64
	lru *list.List // front = most recently used; values are *blockEntry
	m   map[blockKey]*list.Element

	// Counters are atomics so Stats never contends with the read path.
	hits, misses, evictions atomic.Int64
}

func newBlockCache(capBytes int64) *blockCache {
	return &blockCache{cap: capBytes, lru: list.New(), m: make(map[blockKey]*list.Element)}
}

// get returns the cached decoded block, marking it most recently used.
func (c *blockCache) get(k blockKey) ([]Row, []string, bool) {
	c.mu.Lock()
	if el, ok := c.m[k]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*blockEntry)
		c.mu.Unlock()
		c.hits.Add(1)
		return e.rows, e.keys, true
	}
	c.mu.Unlock()
	c.misses.Add(1)
	return nil, nil, false
}

// put inserts a decoded block, evicting from the cold end until the
// byte budget holds. A concurrent reader that decoded the same block
// first wins; an entry larger than the whole capacity is not stored.
func (c *blockCache) put(k blockKey, rows []Row, keys []string, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 || size > c.cap {
		return
	}
	if el, ok := c.m[k]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.m[k] = c.lru.PushFront(&blockEntry{key: k, rows: rows, keys: keys, size: size})
	c.sz += size
	c.evictToCapLocked()
}

func (c *blockCache) evictToCapLocked() {
	for c.sz > c.cap {
		el := c.lru.Back()
		if el == nil {
			return
		}
		c.removeLocked(el)
		c.evictions.Add(1)
	}
}

func (c *blockCache) removeLocked(el *list.Element) {
	e := el.Value.(*blockEntry)
	c.lru.Remove(el)
	delete(c.m, e.key)
	c.sz -= e.size
}

// dropSegment releases every cached block of one segment. Called from
// the segment's last unref — the moment no snapshot can read it again —
// so obsolete segments stop occupying cache the instant they die.
func (c *blockCache) dropSegment(seg uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		if el.Value.(*blockEntry).key.seg == seg {
			c.removeLocked(el)
		}
	}
}

// setCapacity resizes the byte budget, evicting immediately if shrunk.
func (c *blockCache) setCapacity(capBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = capBytes
	c.evictToCapLocked()
}

// segEntries counts one segment's cached blocks (test introspection).
func (c *blockCache) segEntries(seg uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if el.Value.(*blockEntry).key.seg == seg {
			n++
		}
	}
	return n
}

// CacheStats reports the shared decoded-block cache for monitoring.
// Hits and Misses count the block reads of queries and point
// operations; compaction merges bypass the cache and are not counted.
type CacheStats struct {
	CapBytes  int64
	Bytes     int64
	Entries   int
	Hits      int64
	Misses    int64
	Evictions int64
}

// stats snapshots the counters; safe on a nil cache (all zeros).
func (c *blockCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	s := CacheStats{CapBytes: c.cap, Bytes: c.sz, Entries: c.lru.Len()}
	c.mu.Unlock()
	s.Hits = c.hits.Load()
	s.Misses = c.misses.Load()
	s.Evictions = c.evictions.Load()
	return s
}

// blockFootprint estimates a decoded block's memory charge: the encoded
// bytes approximate the string payloads (the codec copies them), plus a
// fixed per-row overhead for the Row/Value headers and the re-derived
// key slice.
func blockFootprint(encodedLen, nrows int) int64 {
	return int64(encodedLen) + int64(nrows)*112
}
