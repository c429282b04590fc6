package store

import (
	"slices"
	"sort"
)

// A scan reads a stable view of one shard: under the table's read lock
// it pins the shard's immutable runs (refcounted, so a concurrent
// compaction cannot delete the files under it) and captures the
// memtable. From then on iteration touches no table lock at all — a
// long scan proceeds while InsertBatch and Compact run freely, and
// still sees exactly the rows that were live at capture. Pinning is
// internal: Query's scan path and compaction's capture are its only
// users.
//
// The memtable only appends, and a compaction's commit replaces it with
// a copy of its residue, so the capture is a sub-slice: no row is
// copied, and the rows an insert appends after it lie beyond its end.

// shardSnap is one shard's pinned view of a table.
type shardSnap struct {
	segs []*segment // pinned runs, oldest → newest
	mem  []memRow   // the captured memtable, ascending keys above every run's
}

// captureLocked pins the shard's runs and captures its memtable with
// the shard's lock already held (read or write); the caller releases
// the lock, and later the view.
func (ts *tableShard) captureLocked() shardSnap {
	ss := shardSnap{segs: slices.Clone(ts.segs), mem: ts.mem[:len(ts.mem):len(ts.mem)]}
	for _, sg := range ss.segs {
		sg.ref()
	}
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
// during iteration plus the block-cache hits and misses threaded
// through every segment read. A nil *readStats is accepted everywhere
// and means "don't count". noFill marks a compaction merge's reads,
// which bypass the block cache (LevelDB's fill_cache=false).
type readStats struct {
	blocksPruned int // blocks skipped via zone maps
	cacheHits    int // blocks served from the decoded-block cache
	cacheMisses  int // blocks that paid disk + CRC + decode
	noFill       bool
}

// iterate emits the view's rows in [lo, hi) ("" = unbounded) in
// ascending key order: the runs hold disjoint ascending key ranges,
// oldest first, and every memtable key is above them all, so it reads
// the runs one after another, then the memtable. Blocks whose zone map
// misses the bounds are never read. fn gets each row with its encoded
// primary key. It returns the first segment read error. stats may be
// nil.
func (ss *shardSnap) iterate(lo, hi string, stats *readStats, fn func(key string, row Row) bool) error {
	below := func(key string) bool { return hi == "" || key < hi }
	for _, sg := range ss.segs {
		from := sort.Search(len(sg.blocks), func(i int) bool { return sg.blocks[i].maxKey >= lo })
		to := len(sg.blocks)
		if hi != "" {
			to = sort.Search(len(sg.blocks), func(i int) bool { return sg.blocks[i].minKey >= hi })
		}
		if stats != nil {
			stats.blocksPruned += len(sg.blocks) - max(to-from, 0)
		}
		for bi := from; bi < to; bi++ {
			rows, keys, err := sg.readBlock(bi, stats)
			if err != nil {
				return err
			}
			i, _ := slices.BinarySearch(keys, lo)
			for ; i < len(keys) && below(keys[i]); i++ {
				if !fn(keys[i], rows[i]) {
					return nil
				}
			}
		}
	}
	i, _ := slices.BinarySearchFunc(ss.mem, lo, cmpMemKey)
	for _, mr := range ss.mem[i:] {
		if !below(mr.key) || !fn(mr.key, mr.row) {
			return nil
		}
	}
	return nil
}
