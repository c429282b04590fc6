package store

import "sort"

// A scan reads a stable view of one shard: under the table's read lock
// it pins the shard's immutable runs (refcounted, so a concurrent
// compaction cannot delete the files under it) and captures the
// memtable entries in bounds. From then on iteration touches no table
// lock at all — a long scan proceeds while InsertBatch and Compact run
// freely, and still sees exactly the rows that were live at capture.
// Pinning is internal: Query's scan path and compaction's capture are
// its only users.
//
// The capture copies only the memtable's entry slice headers (keys and
// Row values are immutable once stored — a key is written once), so its
// cost is proportional to the post-compaction write set, not the
// corpus.

// memRow is one captured memtable entry.
type memRow struct {
	key string
	row Row
}

// shardSnap is one shard's pinned view of a table.
type shardSnap struct {
	segs []*segment // pinned runs
	mem  []memRow   // captured entries in ascending key order
}

// captureLocked pins the shard's runs and captures its memtable entries
// in [lo, hi) ("" = unbounded) with the shard's lock already held (read
// or write); the caller releases the lock, and later the view.
func (ts *tableShard) captureLocked(lo, hi string) shardSnap {
	var ss shardSnap
	if len(ts.segs) > 0 {
		ss.segs = make([]*segment, len(ts.segs))
		for i, sg := range ts.segs {
			sg.ref()
			ss.segs[i] = sg
		}
	}
	ts.primary.AscendRange(lo, hi, func(key string, val interface{}) bool {
		ss.mem = append(ss.mem, memRow{key: key, row: val.(Row)})
		return true
	})
	return ss
}

// release unpins the view's runs (a run obsoleted by compaction is
// deleted on its last unpin).
func (ss *shardSnap) release() {
	for _, sg := range ss.segs {
		sg.unref()
	}
	ss.segs = nil
}

// readStats accumulates read-path observability: zone-map pruning
// during iteration plus the acceleration counters (bloom rejects and
// block-cache hits/misses) threaded through every segment read. A nil
// *readStats is accepted everywhere and means "don't count". noFill
// marks a compaction merge's reads, which bypass the block cache
// (LevelDB's fill_cache=false).
type readStats struct {
	blocksPruned int // blocks skipped via zone maps
	bloomSkips   int // segment probes rejected by a bloom filter
	cacheHits    int // blocks served from the decoded-block cache
	cacheMisses  int // blocks that paid disk + CRC + decode
	noFill       bool
}

// iterate merges the view's memtable capture and runs in ascending key
// order, bounded to [lo, hi) ("" = unbounded). The store is
// append-only, so a key lives in exactly one source: each step emits
// the smallest current key and advances only its source; fn gets each
// row with its encoded primary key. It returns the first segment read
// error. stats may be nil.
func (ss *shardSnap) iterate(lo, hi string, stats *readStats, fn func(key string, row Row) bool) error {
	mem := ss.mem
	mi := sort.Search(len(mem), func(i int) bool { return mem[i].key >= lo })
	iters := make([]*segIter, len(ss.segs))
	for i, sg := range ss.segs {
		iters[i] = newSegIter(sg, lo, hi, stats)
	}
	if stats != nil {
		defer func() {
			for _, it := range iters {
				stats.blocksPruned += it.pruned
			}
		}()
	}
	for {
		best := "" // no row left
		src := -1  // -1 = memtable
		if mi < len(mem) && (hi == "" || mem[mi].key < hi) {
			best = mem[mi].key
		}
		for si, it := range iters {
			if it.err != nil {
				return it.err
			}
			if it.valid() && (best == "" || it.key() < best) {
				best, src = it.key(), si
			}
		}
		if best == "" {
			return nil
		}
		var row Row
		if src < 0 {
			row = mem[mi].row
			mi++
		} else {
			row = iters[src].row()
			iters[src].next()
		}
		if !fn(best, row) {
			return nil
		}
	}
}
