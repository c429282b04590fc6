package store

import "bytes"

// Snapshots give queries an MVCC-style stable view: at planning time
// the reader pins each shard's immutable segment set (refcounted, so a
// concurrent compaction cannot delete the files under it) and captures
// the shard's memtable entries at the current sequence watermark. From
// then on iteration touches no table lock at all — a long analytic
// scan proceeds while InsertBatch, Delete and Compact run freely, and
// the scan still sees exactly the rows that were live when it planned.
//
// The capture copies only the memtable's entry slice headers (keys and
// Row values are immutable once stored — every mutation replaces whole
// values), so its cost is proportional to the post-compaction write
// set, not the corpus.

// memRow is one captured memtable entry; a nil row is a tombstone
// masking a segment-resident key.
type memRow struct {
	key []byte
	row Row
}

// shardSnap is one shard's slice of a snapshot.
type shardSnap struct {
	segs []*segment // pinned, oldest → newest
	mem  []memRow   // captured entries in ascending key order
	seq  uint64     // memtable sequence watermark at capture
}

// Snapshot is a stable, lock-free view of one table across all shards.
// Release must be called when done; it unpins the segments (a segment
// obsoleted by compaction is deleted on its last unpin).
type Snapshot struct {
	table  *Table
	shards []shardSnap
}

// Snapshot captures a stable view of the table: per shard, the pinned
// segment set and every memtable entry. Each shard is captured under
// its read lock — a short, bounded hold — after which iteration never
// locks.
func (t *Table) Snapshot() *Snapshot {
	snap := &Snapshot{table: t, shards: make([]shardSnap, len(t.shards))}
	for i, ts := range t.shards {
		ts.mu.RLock()
		snap.shards[i] = ts.captureLocked(nil, nil)
		ts.mu.RUnlock()
	}
	return snap
}

// captureLocked captures with the shard's lock already held (read or
// write) — query's scan path releases the lock itself right after.
func (ts *tableShard) captureLocked(lo, hi []byte) shardSnap {
	ss := shardSnap{seq: ts.seq}
	if len(ts.segs) > 0 {
		ss.segs = make([]*segment, len(ts.segs))
		for i, sg := range ts.segs {
			sg.ref()
			ss.segs[i] = sg
		}
	}
	visit := func(key []byte, val interface{}) bool {
		ss.mem = append(ss.mem, memRow{key: key, row: liveRow(val)})
		return true
	}
	if lo == nil && hi == nil {
		ts.primary.Ascend(visit)
	} else {
		ts.primary.AscendRange(lo, hi, visit)
	}
	return ss
}

// liveRow unwraps a memtable value: the Row itself, or nil for a
// tombstone.
func liveRow(val interface{}) Row {
	if row, ok := val.(Row); ok {
		return row
	}
	return nil
}

// Release unpins every segment the snapshot holds. Safe to call once.
func (s *Snapshot) Release() {
	for i := range s.shards {
		s.shards[i].release()
	}
}

// release unpins one shard snapshot's segments.
func (ss *shardSnap) release() {
	for _, sg := range ss.segs {
		sg.unref()
	}
	ss.segs = nil
}

// Seq returns the highest memtable watermark across shards — a test
// hook proving the view does not advance while writers proceed.
func (s *Snapshot) Seq() uint64 {
	var max uint64
	for i := range s.shards {
		if s.shards[i].seq > max {
			max = s.shards[i].seq
		}
	}
	return max
}

// readStats accumulates read-path observability: segment/zone-map
// accounting during iteration plus the acceleration counters (bloom
// rejects and block-cache hits/misses) threaded through every segment
// read. A nil *readStats is accepted everywhere and means "don't
// count".
type readStats struct {
	segments     int // segment files consulted
	blocksPruned int // blocks skipped via zone maps
	bloomSkips   int // segment probes rejected by a bloom filter
	cacheHits    int // blocks served from the decoded-block cache
	cacheMisses  int // blocks that paid disk + CRC + decode
}

// Scan streams every live row in ascending primary-key order without
// holding any lock. fn returning false stops early. It returns any
// segment read error (a memtable-only snapshot cannot fail).
//
// Each shard's merged stream is itself merged k-way across shards
// (shards partition the key space by hash, so cross-shard order still
// needs the comparison; within a shard, newest-wins resolves
// duplicates).
func (s *Snapshot) Scan(fn func(Row) bool) error {
	if len(s.shards) == 1 {
		return s.shards[0].iterate(nil, nil, nil, fn)
	}
	// Fan the per-shard merges out into sorted row slices, then k-way
	// merge (the same shape the pre-segment fan-out used). Iteration
	// here is lock-free already, so collecting per shard keeps the
	// cross-shard merge allocation-lean without re-implementing a
	// concurrent heap.
	parts := make([][]Row, len(s.shards))
	errs := make([]error, len(s.shards))
	done := make(chan int, len(s.shards))
	for i := range s.shards {
		go func(i int) {
			errs[i] = s.shards[i].iterate(nil, nil, nil, func(r Row) bool {
				parts[i] = append(parts[i], r)
				return true
			})
			done <- i
		}(i)
	}
	for range s.shards {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, row := range kwayMerge(parts, s.table.lessByPK()) {
		if !fn(row) {
			return nil
		}
	}
	return nil
}

// iterate merges one shard's memtable capture with its segment
// iterators, newest wins on duplicate keys, tombstones suppressing
// older versions. stats may be nil.
func (ss *shardSnap) iterate(lo, hi []byte, stats *readStats, fn func(Row) bool) error {
	// Source 0 is the memtable capture (highest precedence); sources
	// 1..n are segments newest → oldest.
	mem := ss.mem
	mi := 0
	if lo != nil {
		mi = searchMemRows(mem, lo)
	}
	iters := make([]*segIter, 0, len(ss.segs))
	for i := len(ss.segs) - 1; i >= 0; i-- {
		sg := ss.segs[i]
		if stats != nil {
			stats.segments++
		}
		iters = append(iters, newSegIter(sg, lo, hi, stats))
	}
	defer func() {
		if stats != nil {
			for _, it := range iters {
				stats.blocksPruned += it.pruned
			}
		}
	}()

	memKey := func() []byte {
		if mi < len(mem) && (hi == nil || bytes.Compare(mem[mi].key, hi) < 0) {
			return mem[mi].key
		}
		return nil
	}

	for {
		// Pick the smallest key across sources; the memtable, then
		// newer segments, shadow older sources holding the same key.
		best := memKey()
		bestSrc := -1 // -1 = memtable
		for si, it := range iters {
			if it.err != nil {
				return it.err
			}
			if !it.valid() {
				continue
			}
			k := it.key()
			if best == nil || bytes.Compare(k, best) < 0 {
				best, bestSrc = k, si
			}
		}
		if best == nil {
			return nil
		}
		var row Row
		if bestSrc < 0 {
			row = mem[mi].row // nil = tombstone
			mi++
		} else {
			row = iters[bestSrc].row()
			iters[bestSrc].next()
		}
		// Advance every older source past the shadowed key.
		for si := bestSrc + 1; si < len(iters); si++ {
			it := iters[si]
			if it.valid() && bytes.Equal(it.key(), best) {
				it.next()
			}
			if it.err != nil {
				return it.err
			}
		}
		if row == nil {
			continue // tombstone: the key is deleted in this view
		}
		if !fn(row) {
			return nil
		}
	}
}

// searchMemRows returns the position of the first captured entry with
// key >= lo.
func searchMemRows(mem []memRow, lo []byte) int {
	l, h := 0, len(mem)
	for l < h {
		mid := (l + h) / 2
		if bytes.Compare(mem[mid].key, lo) < 0 {
			l = mid + 1
		} else {
			h = mid
		}
	}
	return l
}
