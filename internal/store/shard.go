package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
)

// Shard is one partition of the database: its own write-ahead log file,
// its own segment directory, its own log mutex, and its own slice of
// every table's state (segments + memtable + secondary indexes). Shards
// share nothing, so writers on different shards append, flush and lock
// independently — the decomposition that lets ingest and queries scale
// with cores.
//
// Rows are assigned to shards by a stable hash of the encoded primary
// key (see shardIndex), so a row's home shard never changes across
// reopens and a primary key is globally unique even though each shard
// checks key order only locally.
type Shard struct {
	id      int
	logMu   sync.Mutex // serializes WAL appends on this shard
	log     *wal       // nil = in-memory shard
	failed  error      // latched WAL failure, or one after a compaction's commit point: the shard refuses writes
	path    string
	dropped int  // WAL records dropped during this shard's recovery
	segLost bool // segment state was unreadable; recovered from WAL alone
	gen     uint64
	tables  map[string]*tableShard
	cache   *blockCache // engine-shared decoded-block cache (may be nil)

	// pendingSegs holds each table's manifest runs between open and the
	// replay of the table's create record; leftovers (a WAL whose create
	// record was lost to a crash) are synthesized from the segment's own
	// footer schema after replay.
	pendingSegs map[string][]*segment
	// pendingIdx holds each table's indexes named by the WAL's
	// create-index records, the last record per column; replay only
	// notes them, and open builds every table's noted indexes after
	// replay in one walk of its rows.
	pendingIdx map[string][]*index

	// Compaction state. compactMu serializes compactions of this shard
	// (explicit Compact vs the background compactor); the counters below
	// feed the auto-trigger and CompactionStats and are atomics so the
	// hot write path and monitoring never take a compaction lock.
	compactMu sync.Mutex
	pol       CompactionPolicy // effective policy; zero when background off
	wakeCh    chan struct{}    // buffered(1) compactor wake; nil = no compactor
	pending   atomic.Int64     // rows written since the last compaction, replayed ones included
	cstats    compactionCounters
}

// openShard opens (creating if necessary) one shard's WAL and segment
// directory, replays the WAL over the segment state, and then builds
// the indexes the WAL names, each table's from one walk of its rows.
// The rows replay put back in the memtables seed the compaction
// trigger's row count, so a restart does not reset it.
// Replay reads no segment block: the run footers' zone maps say which
// replayed keys a run already holds. A torn manifest or unreadable
// segment falls back to WAL-only recovery (reported via
// Health().RecoveredWithLoss); runs that overlap fail the open before
// any file is touched. A segment read that fails during the index
// build fails the open and keeps every record the log holds; on any
// failure the log handle and every opened segment are closed before
// returning, so an engine that fails mid-open leaks no descriptors.
func openShard(id int, path string, cache *blockCache) (*Shard, error) {
	// A crashed compaction can leave its truncated-WAL temp beside the
	// log. It holds nothing the committed state doesn't (schema/index
	// records plus residue the old WAL also carries), so it is swept
	// rather than recovered — a stale temp must never be mistaken for
	// the live log by a later rename.
	os.Remove(compactTempPath(path))
	segs, gen, segLost, err := loadShardSegments(segsDirFor(path))
	if err != nil {
		return nil, err
	}
	// Attach the shared cache: the index build and every read after it
	// go through the cached block path.
	for _, runs := range segs {
		for _, sg := range runs {
			sg.cache = cache
		}
	}
	_, statErr := os.Stat(path)
	l, err := openWAL(path)
	if err == nil && os.IsNotExist(statErr) {
		// A new log's directory entry is durable only once its
		// directory is synced.
		if err = syncDir(filepath.Dir(path)); err != nil {
			l.close()
		}
	}
	if err != nil {
		for _, runs := range segs {
			for _, sg := range runs {
				sg.unref()
			}
		}
		return nil, err
	}
	sh := &Shard{
		id: id, log: l, path: path, gen: gen, segLost: segLost,
		tables: make(map[string]*tableShard), pendingSegs: segs, cache: cache,
		pendingIdx: make(map[string][]*index),
	}
	dropped, err := l.replay(sh.applyLogRecord)
	if err == nil {
		err = sh.buildPendingIndexes()
	}
	if err != nil {
		l.close()
		sh.releaseSegments()
		return nil, fmt.Errorf("store: replay %s: %w", path, err)
	}
	sh.dropped = dropped
	for _, ts := range sh.tables {
		sh.pending.Add(int64(len(ts.mem)))
	}
	// Segments whose create-table record was lost to a torn WAL:
	// the footer schema makes the segment self-describing, so the table
	// (and its rows) survive anyway. The record is logged again, or the
	// index records buildRouters appends would name a table the next
	// replay does not know, and be cut.
	for _, runs := range sh.pendingSegs {
		if err := sh.appendLog(encodeCreateTablePayload(runs[0].schema)); err != nil {
			sh.close()
			return nil, err
		}
		sh.newTableShard(runs[0].schema)
	}
	return sh, nil
}

// buildPendingIndexes builds and installs the indexes replay noted, one
// walk of each table's runs and memtable for all of that table's
// indexes.
func (sh *Shard) buildPendingIndexes() error {
	for name, ixs := range sh.pendingIdx {
		ts := sh.tables[name]
		if err := ts.buildIndexes(ixs); err != nil {
			return err
		}
		for _, ix := range ixs {
			ts.secondary[ts.schema.Columns[ix.col].Name] = ix
		}
	}
	sh.pendingIdx = nil
	return nil
}

// memShard returns an in-memory shard with no durable log.
func memShard(id int) *Shard {
	return &Shard{id: id, tables: make(map[string]*tableShard)}
}

// releaseSegments unpins every segment the shard holds — attached to
// tables or still pending — closing their descriptors.
func (sh *Shard) releaseSegments() {
	for _, ts := range sh.tables {
		ts.mu.Lock()
		for _, sg := range ts.segs {
			sg.unref()
		}
		ts.segs = nil
		ts.mu.Unlock()
	}
	for name, runs := range sh.pendingSegs {
		for _, sg := range runs {
			sg.unref()
		}
		delete(sh.pendingSegs, name)
	}
}

// close flushes and closes the shard's log and releases its segments.
// Safe to call twice.
func (sh *Shard) close() error {
	sh.logMu.Lock()
	defer sh.logMu.Unlock()
	sh.releaseSegments()
	if sh.log == nil {
		return nil
	}
	err := sh.log.close()
	sh.log = nil
	return err
}

// sync flushes buffered log records to stable storage. A failed flush
// or fsync latches the shard: after a failed fsync the kernel may have
// dropped the unwritten pages, so a later fsync that succeeds proves
// nothing about the records before it.
func (sh *Shard) sync() error {
	sh.logMu.Lock()
	defer sh.logMu.Unlock()
	if sh.failed != nil {
		return sh.failed
	}
	if sh.log == nil {
		return nil
	}
	if err := sh.log.sync(); err != nil {
		sh.failed = fmt.Errorf("store: shard %d wal sync: %w (reopen to recover)", sh.id, err)
		return sh.failed
	}
	return nil
}

// failedErr reads the write-refusal latch under logMu, the lock every
// latching path holds, so Health and Stats can be called concurrently
// with writes and a compaction's commit phase.
func (sh *Shard) failedErr() error {
	sh.logMu.Lock()
	defer sh.logMu.Unlock()
	return sh.failed
}

// logSize returns the shard WAL's current size in bytes.
func (sh *Shard) logSize() int64 {
	sh.logMu.Lock()
	defer sh.logMu.Unlock()
	if sh.log == nil {
		return 0
	}
	return sh.log.len
}

// appendLog appends and flushes one record under logMu; a nil log
// (in-memory shard) is a no-op. A failed write or flush latches the
// shard, and a latched shard — its log failed, or a compaction failed
// after its commit point — refuses writes instead of silently dropping
// durability.
func (sh *Shard) appendLog(payload []byte) error {
	sh.logMu.Lock()
	defer sh.logMu.Unlock()
	if sh.failed != nil {
		return sh.failed
	}
	if sh.log == nil {
		return nil
	}
	err := sh.log.append(payload)
	if err == nil {
		err = sh.log.flush()
	}
	if err != nil {
		sh.failed = fmt.Errorf("store: shard %d wal write: %w (reopen to recover)", sh.id, err)
		return sh.failed
	}
	return nil
}

// noteWrite counts the rows logged since the last compaction, the
// background compactor's one trigger. Once they reach the policy's
// MemRows a wake token is posted (non-blocking — the channel holds one
// token, and the compactor re-checks after each run, so a full channel
// never loses a trigger).
func (sh *Shard) noteWrite(rows int) {
	if sh.pending.Add(int64(rows)) >= int64(sh.pol.MemRows) && sh.wakeCh != nil {
		select {
		case sh.wakeCh <- struct{}{}:
		default:
		}
	}
}

// newTableShard creates (or returns the existing) state for one table on
// this shard, attaching the table's manifest runs when they are pending
// from open.
func (sh *Shard) newTableShard(s Schema) *tableShard {
	if ts, ok := sh.tables[s.Name]; ok {
		return ts
	}
	ts := &tableShard{
		schema:    s,
		shard:     sh,
		secondary: make(map[string]*index),
	}
	if runs, ok := sh.pendingSegs[s.Name]; ok {
		delete(sh.pendingSegs, s.Name)
		if schemaEqual(runs[0].schema, s) {
			ts.segs = runs
		} else {
			// The WAL and the segment footers disagree on the schema:
			// trust the WAL (it carries the later writes) and recover
			// without the segments, reporting the loss.
			for _, sg := range runs {
				sg.unref()
			}
			sh.segLost = true
		}
	}
	sh.tables[s.Name] = ts
	return ts
}

// logInsertBatch appends one WAL record covering the whole row batch.
func (sh *Shard) logInsertBatch(table string, rows []memRow) error {
	if err := sh.appendLog(encodeBatchPayload(table, rows)); err != nil {
		return err
	}
	sh.noteWrite(len(rows))
	return nil
}

// logCreateIndex appends a create-index record for the table, making the
// secondary index and its include list durable across reopen.
func (sh *Shard) logCreateIndex(table, col string, include []string) error {
	return sh.appendLog(encodeCreateIndexPayload(table, col, include))
}

// applyLogRecord replays one WAL payload into this shard's in-memory
// state. An error it returns is treated by replay as a corrupt tail:
// replay stops and the log is truncated at the last record that applied
// cleanly, so a mangled-but-CRC-valid record — a batch whose keys go
// backwards among them — can never panic or half-apply. Batch records
// are decoded, validated and order-checked in full before any row is
// applied, keeping replay all-or-nothing per record. A create-index
// record is only noted; open builds the index once replay ends.
func (sh *Shard) applyLogRecord(payload []byte) error {
	if len(payload) == 0 {
		return ErrCorrupt
	}
	op := payload[0]
	if op == opCreateTable {
		s, err := decodeSchemaPayload(payload)
		if err != nil {
			return err
		}
		sh.newTableShard(s)
		return nil
	}
	rest := payload[1:]
	name, rest, err := readString(rest)
	if err != nil {
		return err
	}
	switch op {
	case opInsertBatch:
		ts, ok := sh.tables[name]
		if !ok {
			return fmt.Errorf("store: replay batch insert into unknown table %q", name)
		}
		count, k := binary.Uvarint(rest)
		// Every encoded value is at least two bytes (type byte +
		// payload), so a valid record cannot claim more rows than
		// len(rest)/(2*ncols); a larger count is corruption, and the
		// bound keeps a crafted count from pre-allocating gigabytes.
		maxRows := uint64(len(rest)) / uint64(2*len(ts.schema.Columns))
		if k <= 0 || count > maxRows {
			return ErrCorrupt
		}
		rest = rest[k:]
		rows := make([]Row, 0, count)
		for i := uint64(0); i < count; i++ {
			var row Row
			row, rest, err = decodeValues(rest, len(ts.schema.Columns))
			if err != nil {
				return err
			}
			if err := ts.schema.validate(row); err != nil {
				return err
			}
			rows = append(rows, row)
		}
		if len(rest) != 0 {
			return ErrCorrupt
		}
		return ts.replayBatch(rows)
	case opCreateIndex:
		ts, ok := sh.tables[name]
		if !ok {
			return fmt.Errorf("store: replay create-index on unknown table %q", name)
		}
		col, rest, err := readString(rest)
		if err != nil {
			return err
		}
		include, err := decodeIncludeList(rest)
		if err != nil {
			return err
		}
		ix, err := newIndex(&ts.schema, col, include)
		if err != nil {
			return err
		}
		pending := sh.pendingIdx[name]
		if i := slices.IndexFunc(pending, func(p *index) bool { return p.col == ix.col }); i >= 0 {
			pending[i] = ix // a later record rebuilt the index
		} else {
			sh.pendingIdx[name] = append(pending, ix)
		}
	default:
		return ErrCorrupt
	}
	return nil
}

// shardIndex maps an encoded primary key to its home shard: FNV-1a over
// the key bytes, modulo the shard count. The hash depends only on the
// key encoding, which is stable across reopens, so the routing never
// changes for a given layout.
func shardIndex(key string, n int) int {
	return int(fnv1a(key) % uint64(n))
}

// fnv1a is the 64-bit FNV-1a hash of key, inlined (rather than
// hash/fnv) to keep per-row routing allocation-free.
func fnv1a(key string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}
