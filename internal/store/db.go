package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// DB is an embedded database engine: a set of tables hash-partitioned
// by primary key across one or more shards, each shard durably backed
// by its own write-ahead log. Open replays every shard's log (in
// parallel); a corrupted tail (crash) is truncated per shard.
//
// Layouts. A single-shard engine stores its WAL in a plain file at
// path — byte-compatible with pre-shard databases, which open
// unchanged. A multi-shard engine stores path as a directory of
// per-shard subdirectories:
//
//	path/
//	  shard-000/wal.log
//	  shard-001/wal.log
//	  ...
//
// The shard count is fixed at creation; reopening detects it from the
// directory and rejects a conflicting request (resharding would
// re-route every row).
//
// Locking: db.mu guards the tables map and shard lifecycle (Compact's
// log swaps); each tableShard carries its own RWMutex for row and
// index state; each Shard has a logMu serializing appends to its WAL.
// Lock order is db.mu → tableShard.mu → Shard.logMu, and no path
// acquires them in the opposite direction, so concurrent readers and
// writers on different shards never deadlock and never contend.
type DB struct {
	mu     sync.RWMutex
	shards []*Shard
	tables map[string]*Table

	// Background compaction (see compactor.go). stopCh is nil when the
	// compactor was never started.
	pol      CompactionPolicy
	stopCh   chan struct{}
	stopOnce sync.Once
	compWG   sync.WaitGroup

	// cache is the engine-wide decoded-block cache shared by every
	// shard's segments (see blockcache.go).
	cache *blockCache
}

// shardWALName is the WAL file inside each shard subdirectory.
const shardWALName = "wal.log"

// shardDirName formats the subdirectory of shard i.
func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// Open opens (creating if necessary) the database at path with the
// layout found on disk: a plain file (or a fresh path) is a
// single-shard engine, a shard directory keeps its existing shard
// count. It is OpenSharded(path, 0).
func Open(path string) (*DB, error) { return OpenSharded(path, 0) }

// OpenSharded opens (creating if necessary) the database at path with n
// shards. n <= 0 auto-detects: an existing layout keeps its shard
// count, a fresh path defaults to one shard. Creating a fresh path with
// n > 1 lays out per-shard subdirectories; n == 1 creates the
// pre-shard-compatible single file. Opening an existing database with a
// conflicting n fails — resharding is not supported.
func OpenSharded(path string, n int) (*DB, error) {
	paths, err := resolveLayout(path, n)
	if err != nil {
		return nil, err
	}
	// Open and replay every shard in parallel: recovery time is the
	// slowest shard, not the sum.
	cache := newBlockCache(DefaultBlockCacheBytes)
	shards := make([]*Shard, len(paths))
	errs := make([]error, len(paths))
	fanOut(len(paths), func(i int) {
		shards[i], errs[i] = openShard(i, paths[i], cache)
	})
	if err := errors.Join(errs...); err != nil {
		// A partial open must not leak the shards that did succeed.
		for _, sh := range shards {
			if sh != nil {
				sh.close()
			}
		}
		return nil, err
	}
	db := &DB{shards: shards, tables: make(map[string]*Table), cache: cache}
	if err := db.buildRouters(); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// OpenShardedWithPolicy opens the database like OpenSharded and starts
// the background compactor: one goroutine per shard, woken when the
// rows logged on the shard since its last compaction — a reopen's
// replayed rows included — reach the policy's MemRows, folding the
// memtable into a new small segment off the write path (and escalating to a major merge when a table's segment
// stack hits the fan-out bound). Close waits for an in-flight
// background compaction to finish before closing the shards.
func OpenShardedWithPolicy(path string, n int, pol CompactionPolicy) (*DB, error) {
	db, err := OpenSharded(path, n)
	if err != nil {
		return nil, err
	}
	db.pol = pol.withDefaults()
	db.startCompactors()
	return db, nil
}

// resolveLayout maps (path, requested shard count) to the per-shard WAL
// paths, creating shard subdirectories for a fresh multi-shard engine.
func resolveLayout(path string, n int) ([]string, error) {
	st, err := os.Stat(path)
	switch {
	case err == nil && !st.IsDir():
		if n > 1 {
			return nil, fmt.Errorf("store: %s is a single-file store; cannot open with %d shards (resharding unsupported)", path, n)
		}
		return []string{path}, nil
	case err == nil: // existing directory
		m, other, err := countShardDirs(path)
		if err != nil {
			return nil, err
		}
		if m == 0 {
			// Never fabricate a database inside a directory that is
			// not one: an explicit shard count may lay out a pre-made
			// *empty* directory, but a directory with foreign content
			// (a corpus dir, a typo'd path) or an auto-detect open is
			// refused.
			if other > 0 {
				return nil, fmt.Errorf("store: %s exists and is not a database directory", path)
			}
			if n < 1 {
				return nil, fmt.Errorf("store: %s is an empty directory, not a database (pass a shard count to initialize it)", path)
			}
			return makeShardDirs(path, n)
		}
		if n > 0 && n != m {
			return nil, fmt.Errorf("store: %s has %d shards, opened with %d (resharding unsupported)", path, m, n)
		}
		return shardWALPaths(path, m), nil
	case os.IsNotExist(err):
		if n <= 1 {
			return []string{path}, nil // compatible single-file default
		}
		return makeShardDirs(path, n)
	default:
		return nil, err
	}
}

// countShardDirs counts the shard-NNN subdirectories of dir (exact
// names only — "shard-000-backup" is a foreign entry, not a shard),
// verifying they are contiguous from shard-000. other reports how many
// entries are not shard directories, so callers can tell an empty
// pre-made directory from one holding unrelated content.
func countShardDirs(dir string) (n, other int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	present := make(map[string]bool, len(entries))
	for _, e := range entries {
		i, ok := parseShardDirName(e.Name())
		if !ok {
			other++
			continue
		}
		if !e.IsDir() {
			return 0, 0, fmt.Errorf("store: %s is not a directory", filepath.Join(dir, e.Name()))
		}
		present[shardDirName(i)] = true
		n++
	}
	for i := 0; i < n; i++ {
		if !present[shardDirName(i)] {
			return 0, 0, fmt.Errorf("store: %s: shard directories not contiguous (missing %s)", dir, shardDirName(i))
		}
	}
	return n, other, nil
}

// parseShardDirName inverts shardDirName exactly: "shard-" followed by
// digits, round-tripping to the same name (so trailing garbage and
// wrong zero-padding are rejected rather than miscounted).
func parseShardDirName(name string) (int, bool) {
	var i int
	if _, err := fmt.Sscanf(name, "shard-%d", &i); err != nil || i < 0 {
		return 0, false
	}
	if shardDirName(i) != name {
		return 0, false
	}
	return i, true
}

// shardWALPaths lists the WAL path of each of dir's n shards.
func shardWALPaths(dir string, n int) []string {
	paths := make([]string, n)
	for i := range paths {
		paths[i] = filepath.Join(dir, shardDirName(i), shardWALName)
	}
	return paths
}

// makeShardDirs creates dir and its n shard subdirectories, syncing
// dir and its parent so the new entries are durable.
func makeShardDirs(dir string, n int) ([]string, error) {
	for i := 0; i < n; i++ {
		if err := os.MkdirAll(filepath.Join(dir, shardDirName(i)), 0o755); err != nil {
			return nil, err
		}
	}
	if err := syncDir(dir); err != nil {
		return nil, err
	}
	if err := syncDir(filepath.Dir(dir)); err != nil {
		return nil, err
	}
	return shardWALPaths(dir, n), nil
}

// buildRouters unifies the per-shard table states replayed from each
// WAL into cross-shard Table routers. Shards normally agree on the
// table and index inventory (CreateTable and CreateIndex log to every
// shard); a shard whose WAL lost the tail of that inventory to a crash
// is repaired by re-appending the missing create records, so the
// invariant "every shard WAL self-describes its tables and indexes"
// holds again after open. Conflicting schemas for the same table name
// are corruption and fail the open.
func (db *DB) buildRouters() error {
	nameSet := make(map[string]bool)
	for _, sh := range db.shards {
		for name := range sh.tables {
			nameSet[name] = true
		}
	}
	names := make([]string, 0, len(nameSet))
	for n := range nameSet {
		names = append(names, n)
	}
	slices.Sort(names)

	for _, name := range names {
		var schema Schema
		found := false
		for _, sh := range db.shards {
			ts, ok := sh.tables[name]
			if !ok {
				continue
			}
			if !found {
				schema, found = ts.schema, true
			} else if !schemaEqual(schema, ts.schema) {
				return fmt.Errorf("store: shards disagree on schema of table %q", name)
			}
		}
		idxSet := make(map[string]bool)
		for _, sh := range db.shards {
			if ts, ok := sh.tables[name]; ok {
				for col := range ts.secondary {
					idxSet[col] = true
				}
			}
		}
		idxCols := make([]string, 0, len(idxSet))
		for c := range idxSet {
			idxCols = append(idxCols, c)
		}
		slices.Sort(idxCols)

		shards := make([]*tableShard, len(db.shards))
		for i, sh := range db.shards {
			ts, ok := sh.tables[name]
			if !ok {
				if err := sh.appendLog(encodeCreateTablePayload(schema)); err != nil {
					return err
				}
				ts = sh.newTableShard(schema)
			}
			var missing []string
			for _, col := range idxCols {
				if _, ok := ts.secondary[col]; !ok {
					missing = append(missing, col)
				}
			}
			idxs, err := ts.buildIndexes(missing)
			if err != nil {
				return err
			}
			for i, col := range missing {
				if err := sh.appendLog(encodeCreateIndexPayload(name, col)); err != nil {
					return err
				}
				ts.secondary[col] = idxs[i]
			}
			shards[i] = ts
		}
		db.tables[name] = &Table{schema: schema, shards: shards}
	}
	return nil
}

// schemaEqual reports whether two schemas are identical.
func schemaEqual(a, b Schema) bool {
	if a.Name != b.Name || a.Primary != b.Primary || len(a.Columns) != len(b.Columns) {
		return false
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return false
		}
	}
	return true
}

// OpenMemory returns a single-shard database with no durable log: all
// operations stay in memory. Useful for tests and benchmarks.
func OpenMemory() *DB { return OpenMemorySharded(1) }

// OpenMemorySharded returns an n-shard in-memory database.
func OpenMemorySharded(n int) *DB {
	if n < 1 {
		n = 1
	}
	cache := newBlockCache(DefaultBlockCacheBytes)
	shards := make([]*Shard, n)
	for i := range shards {
		shards[i] = memShard(i)
		shards[i].cache = cache
	}
	return &DB{shards: shards, tables: make(map[string]*Table), cache: cache}
}

// SetBlockCacheCapacity resizes the engine-wide decoded-block cache.
// 0 disables caching (entries are dropped and nothing new is stored;
// the hit/miss counters stay live). Safe at any time, including under
// concurrent reads.
func (db *DB) SetBlockCacheCapacity(capBytes int64) {
	db.cache.setCapacity(capBytes)
}

// BlockCacheStats snapshots the engine-wide decoded-block cache.
func (db *DB) BlockCacheStats() CacheStats { return db.cache.stats() }

// Shards returns the engine's shard count.
func (db *DB) Shards() int { return len(db.shards) }

// Health reports the engine's degradation state: which shards latched
// a write refusal, and whether recovery dropped data. It reads the
// latches under the database lock, so it is safe concurrently with
// compaction and writes.
func (db *DB) Health() Health {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var h Health
	for _, sh := range db.shards {
		if failed := sh.failedErr(); failed != nil {
			h.ReadOnly = true
			h.FailedShards = append(h.FailedShards, sh.id)
			if h.Reason == "" {
				h.Reason = failed.Error()
			}
		}
		if sh.dropped > 0 || sh.segLost {
			h.RecoveredWithLoss = true
		}
		h.DroppedRecords += sh.dropped
	}
	return h
}

// Close flushes and closes every shard's log. With background
// compaction enabled it first stops the compactors, waiting for any
// in-flight compaction to complete — the safe point the daemon's
// SIGTERM drain relies on.
func (db *DB) Close() error {
	db.stopCompactors()
	db.mu.Lock()
	defer db.mu.Unlock()
	errs := make([]error, len(db.shards))
	for i, sh := range db.shards {
		errs[i] = sh.close()
	}
	return errors.Join(errs...)
}

// Sync flushes buffered log records on every shard to stable storage.
func (db *DB) Sync() error {
	errs := make([]error, len(db.shards))
	for i, sh := range db.shards {
		errs[i] = sh.sync()
	}
	return errors.Join(errs...)
}

// LogSize returns the total size of the write-ahead logs in bytes
// (0 for in-memory databases).
func (db *DB) LogSize() int64 {
	var total int64
	for _, sh := range db.shards {
		total += sh.logSize()
	}
	return total
}

// CreateTable creates a table with the given schema on every shard.
// Creating an existing table with an identical schema is a no-op, and
// takes only the read lock: ingest calls it per batch, and a write
// lock would queue it behind every in-flight compaction, with Health
// and every other reader queued behind it in turn.
func (db *DB) CreateTable(s Schema) (*Table, error) {
	db.mu.RLock()
	t, ok := db.tables[s.Name]
	db.mu.RUnlock()
	if ok {
		return t, nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if t, ok := db.tables[s.Name]; ok {
		return t, nil
	}
	if len(s.Columns) == 0 || s.Primary < 0 || s.Primary >= len(s.Columns) {
		return nil, fmt.Errorf("store: invalid schema for table %q", s.Name)
	}
	payload := encodeCreateTablePayload(s)
	shards := make([]*tableShard, len(db.shards))
	for i, sh := range db.shards {
		if err := sh.appendLog(payload); err != nil {
			// Earlier shards logged the create; the next open's
			// buildRouters repairs any shard this loop did not reach.
			return nil, err
		}
		shards[i] = sh.newTableShard(s)
	}
	t = &Table{schema: s, shards: shards}
	db.tables[s.Name] = t
	return t, nil
}

// encodeCreateTablePayload frames an opCreateTable payload; CreateTable
// and Compact both go through it.
func encodeCreateTablePayload(s Schema) []byte {
	payload := []byte{opCreateTable}
	payload = appendString(payload, s.Name)
	payload = append(payload, byte(len(s.Columns)), byte(s.Primary))
	for _, c := range s.Columns {
		payload = appendString(payload, c.Name)
		payload = append(payload, byte(c.Type))
	}
	return payload
}

// encodeCreateIndexPayload frames an opCreateIndex payload; CreateIndex
// and Compact both go through it.
func encodeCreateIndexPayload(table, col string) []byte {
	payload := []byte{opCreateIndex}
	payload = appendString(payload, table)
	return appendString(payload, col)
}

// Table returns the named table, or an error if it does not exist.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("store: no table %q", name)
	}
	return t, nil
}
