package store

import (
	"sync"
	"sync/atomic"
)

// CompactionPolicy configures automatic background compaction, which
// is opt-in: OpenShardedWithPolicy starts it, OpenSharded (and Open)
// do not. The zero value selects every default threshold.
type CompactionPolicy struct {
	// MemRows wakes a shard's compactor once this many rows have been
	// logged on the shard since its last compaction. <= 0 selects
	// DefaultCompactMemRows.
	MemRows int
	// WALBytes wakes a shard's compactor once its write-ahead log
	// reaches this size. <= 0 selects DefaultCompactWALBytes.
	WALBytes int64
	// Fanout bounds each table's segment-run stack: when any table on
	// the shard holds at least this many runs, the next triggered
	// compaction is a major merge (collapsing the stack to one run)
	// instead of a minor one. <= 0 selects DefaultCompactFanout.
	Fanout int
}

// Default auto-compaction thresholds.
const (
	DefaultCompactMemRows  = 50_000
	DefaultCompactWALBytes = 64 << 20
	DefaultCompactFanout   = 8
)

// withDefaults fills unset thresholds.
func (p CompactionPolicy) withDefaults() CompactionPolicy {
	if p.MemRows <= 0 {
		p.MemRows = DefaultCompactMemRows
	}
	if p.WALBytes <= 0 {
		p.WALBytes = DefaultCompactWALBytes
	}
	if p.Fanout <= 0 {
		p.Fanout = DefaultCompactFanout
	}
	return p
}

// CompactionStats aggregates compaction activity for monitoring.
type CompactionStats struct {
	MinorRuns      int64 // memtable-only folds completed
	MajorRuns      int64 // full table merges completed
	RowsRewritten  int64 // rows written into new segment files
	BytesRewritten int64 // bytes of new segment files
	Backlog        int64 // rows logged since each shard's last compaction
	LastError      string
}

// compactionCounters is one shard's compaction telemetry; atomics so
// the write path and monitoring never take a compaction lock.
type compactionCounters struct {
	minor, major atomic.Int64
	rows, bytes  atomic.Int64
	errMu        sync.Mutex
	lastErr      string
}

func (c *compactionCounters) noteRun(mode compactMode, rows, bytes int64) {
	if mode == minorCompact {
		c.minor.Add(1)
	} else {
		c.major.Add(1)
	}
	c.rows.Add(rows)
	c.bytes.Add(bytes)
}

func (c *compactionCounters) noteError(err error) {
	c.errMu.Lock()
	c.lastErr = err.Error()
	c.errMu.Unlock()
}

func (c *compactionCounters) lastError() string {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.lastErr
}

// CompactionStats sums compaction counters over the engine's shards.
func (db *DB) CompactionStats() CompactionStats {
	var cs CompactionStats
	for _, sh := range db.shards {
		addShardCompactionStats(&cs, sh)
	}
	return cs
}

func addShardCompactionStats(cs *CompactionStats, sh *Shard) {
	cs.MinorRuns += sh.cstats.minor.Load()
	cs.MajorRuns += sh.cstats.major.Load()
	cs.RowsRewritten += sh.cstats.rows.Load()
	cs.BytesRewritten += sh.cstats.bytes.Load()
	cs.Backlog += sh.pending.Load()
	if e := sh.cstats.lastError(); e != "" && cs.LastError == "" {
		cs.LastError = e
	}
}

// startCompactors launches one compactor goroutine per durable shard.
// Each sleeps on its shard's wake channel — fed by noteWrite when the
// policy thresholds trip — and runs minor compactions off the write
// path, escalating to a major merge when a table's run stack reaches
// the fan-out bound.
func (db *DB) startCompactors() {
	db.stopCh = make(chan struct{})
	for _, sh := range db.shards {
		if sh.log == nil {
			continue
		}
		sh.pol = db.pol
		sh.wakeCh = make(chan struct{}, 1)
		db.compWG.Add(1)
		go db.compactorLoop(sh)
	}
}

// stopCompactors signals every compactor and waits for in-flight
// compactions to reach their safe point (run completion — every
// intermediate crash window is already recoverable, but Close must not
// yank the engine out from under a live rewrite). Safe to call twice
// and without startCompactors.
func (db *DB) stopCompactors() {
	if db.stopCh == nil {
		return
	}
	db.stopOnce.Do(func() { close(db.stopCh) })
	db.compWG.Wait()
}

func (db *DB) compactorLoop(sh *Shard) {
	defer db.compWG.Done()
	for {
		select {
		case <-db.stopCh:
			return
		case <-sh.wakeCh:
		}
		db.autoCompact(sh)
	}
}

// autoCompact runs one background compaction if the thresholds still
// hold (a wake token posted during a compaction that already covered
// those writes is dropped here).
func (db *DB) autoCompact(sh *Shard) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if sh.pending.Load() < int64(sh.pol.MemRows) && sh.walLen.Load() < sh.pol.WALBytes {
		return
	}
	mode := minorCompact
	for _, ts := range sh.tables {
		ts.mu.RLock()
		runs := len(ts.segs)
		ts.mu.RUnlock()
		if runs >= sh.pol.Fanout {
			mode = majorCompact
			break
		}
	}
	// Errors are latched in the shard's counters (and, for swap
	// failures, in Health); the loop keeps serving later triggers.
	_ = db.compactShard(sh, mode)
}
