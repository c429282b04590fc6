package store

// Stats summarizes a table for monitoring.
type Stats struct {
	Rows     int
	Shards   int
	Segments int // segment files currently serving reads
	// FailedShards counts shards refusing writes behind the
	// failed-compaction latch (see DB.Health); non-zero means the
	// table is effectively read-only until the database is reopened.
	FailedShards int
	Indexes      int
	IndexNames   []string
	// Compaction aggregates the shards' compaction counters (compaction
	// is per shard and covers every table on it, so these are engine-
	// wide numbers surfaced here for one-stop monitoring).
	Compaction CompactionStats
	// Cache snapshots the engine-wide decoded-block cache (shared by
	// every shard and table; surfaced here for one-stop monitoring).
	Cache CacheStats
}

// Stats returns the table's live-row count and segment count (summed
// over shards) and index inventory (identical on every shard by
// construction).
func (t *Table) Stats() Stats {
	s := Stats{Shards: len(t.shards)}
	for _, ts := range t.shards {
		ts.mu.RLock()
		s.Rows += ts.count
		s.Segments += len(ts.segs)
		if ts.shard != nil && ts.shard.failed != nil {
			s.FailedShards++
		}
		ts.mu.RUnlock()
		if ts.shard != nil {
			addShardCompactionStats(&s.Compaction, ts.shard)
		}
	}
	ts := t.shards[0]
	ts.mu.RLock()
	s.Indexes = len(ts.secondary)
	for name := range ts.secondary {
		s.IndexNames = append(s.IndexNames, name)
	}
	ts.mu.RUnlock()
	sortKeys(s.IndexNames)
	if ts.shard != nil {
		s.Cache = ts.shard.cache.stats()
	}
	return s
}
