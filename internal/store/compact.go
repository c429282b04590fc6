package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// Compaction folds a suffix of each table's run stack, plus the
// captured memtable, into one new immutable sorted run. The suffix is
// all that tells its two flavors apart:
//
//   - Flush (minor) folds the empty suffix: the memtable alone becomes
//     one new small run on top of the old ones, so the cost is
//     proportional to the writes since the last compaction, not the
//     corpus.
//
//   - Compact (major) folds the whole stack, collapsing it to one run.
//
// Keys ascend on every shard, so the fold merges nothing: the folded
// runs and the memtable are copied back to back, and the new run's
// keys lie above those of every run the fold leaves.
//
// A compaction runs in three phases that stay off the write path:
// capture (a brief per-table read lock pins the runs and takes the
// memtable as a sub-slice), build (the new run files are written with
// NO table lock held — writers and readers proceed), and commit (all
// table locks plus the log lock). The commit stages the truncated log —
// schema and index records, then the residue: the memtable rows
// appended after the capture — and renames a new MANIFEST into place.
// That rename is the only commit point. Once the segments directory is
// synced, the in-memory state is swapped (the memtable becoming a copy
// of the residue) and the staged log is renamed over the old one; its
// open handle becomes the shard's log.
//
// Every crash window recovers. Before the manifest rename the old
// manifest and log are untouched (new run files and the staged log are
// swept as strays on reopen). After it, a power cut may bring back
// either manifest, and the old log replays correctly over both: over
// the new one it skips every key at or below the largest run key,
// reading no block. Once renamed, the staged log replays its residue
// over the new runs alone. A failure after the manifest rename
// therefore removes no run file, old or new: it latches the shard,
// which refuses writes until a reopen.
type compactMode int

const (
	minorCompact compactMode = iota // fold the memtable into one new run
	majorCompact                    // fold every run and the memtable into one
)

// testHookCompactBuild, when non-nil, runs during the lock-free build
// phase of every compaction — tests use it to hold a compaction
// mid-flight while asserting that readers, writers and monitoring stay
// responsive.
var testHookCompactBuild func()

// Compact runs a major compaction of every shard, in parallel. It
// holds only the database read lock, so table reads, writes and
// introspection (Stats, Health) proceed during the rewrite; per shard
// it serializes with the background compactor.
func (db *DB) Compact() error { return db.compactAll(majorCompact) }

// Flush runs a minor compaction of every shard, in parallel: each
// shard's memtable is folded into one new segment run per table. It is
// the explicit way to push recent writes into the segment layer —
// tests and benchmarks use it to build multi-run stacks
// deterministically without waiting for the background compactor.
func (db *DB) Flush() error { return db.compactAll(minorCompact) }

// compactAll runs one compaction of every shard, in parallel, under the
// database read lock.
func (db *DB) compactAll(mode compactMode) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	errs := make([]error, len(db.shards))
	fanOut(len(db.shards), func(i int) {
		errs[i] = db.compactShard(db.shards[i], mode)
	})
	return errors.Join(errs...)
}

// compactShard runs one compaction of one shard, serialized against
// concurrent compactions of the same shard, and records the outcome in
// the shard's compaction counters. Callers hold db.mu (read).
func (db *DB) compactShard(sh *Shard, mode compactMode) error {
	sh.compactMu.Lock()
	defer sh.compactMu.Unlock()
	rows, bytes, err := db.compactShardLocked(sh, mode)
	if err != nil {
		sh.cstats.noteError(err)
		return err
	}
	sh.cstats.noteRun(mode, rows, bytes)
	return nil
}

// tableCompact carries one table's state across the three phases.
type tableCompact struct {
	name string
	ts   *tableShard
	snap shardSnap // pinned runs + captured memtable
	from int       // the fold takes the runs from this index on
	seg  *segment  // the new run (nil: nothing to write)
}

// compactShardLocked is the compaction body; compactMu is held, so no
// other path changes the shard's runs between capture and commit. It
// returns the rows and bytes written into new segment files.
func (db *DB) compactShardLocked(sh *Shard, mode compactMode) (rowsOut, bytesOut int64, err error) {
	if failed := sh.failedErr(); failed != nil {
		// A latched shard stays as it is until a reopen; pretending the
		// rewrite succeeded would hide a dead shard.
		return 0, 0, failed
	}
	if sh.log == nil {
		return 0, 0, nil // in-memory shards have nothing to compact
	}
	segsDir := segsDirFor(sh.path)
	if _, err := os.Stat(segsDir); os.IsNotExist(err) {
		// The first compaction creates the directory; its entry must be
		// durable before a manifest inside it can commit anything.
		if err := os.Mkdir(segsDir, 0o755); err != nil {
			return 0, 0, err
		}
		if err := syncDir(filepath.Dir(segsDir)); err != nil {
			return 0, 0, err
		}
	}
	gen := sh.gen + 1

	lockNames := make([]string, 0, len(sh.tables))
	for n := range sh.tables {
		lockNames = append(lockNames, n)
	}
	slices.Sort(lockNames)

	// Phase A: capture. A brief read lock per table pins its runs and
	// takes the memtable; writers resume immediately after.
	tcs := make([]*tableCompact, 0, len(lockNames))
	defer func() {
		for _, c := range tcs {
			c.snap.release()
		}
	}()
	for _, name := range lockNames {
		ts := sh.tables[name]
		ts.mu.RLock()
		c := &tableCompact{name: name, ts: ts, snap: ts.captureLocked()}
		ts.mu.RUnlock()
		if mode == minorCompact {
			c.from = len(c.snap.segs)
		}
		tcs = append(tcs, c)
	}

	// Phase B: build the new runs with no table lock held — everything
	// here is additive, so an error aborts with the shard untouched.
	if testHookCompactBuild != nil {
		testHookCompactBuild()
	}
	// dropNew closes the new runs; before the commit point it also
	// deletes their files.
	dropNew := func(remove bool) {
		for _, c := range tcs {
			if c.seg != nil {
				if remove {
					c.seg.markObsolete()
				}
				c.seg.unref()
			}
		}
	}
	for ti, c := range tcs {
		fold := shardSnap{segs: c.snap.segs[c.from:], mem: c.snap.mem}
		// Exact: a key lives in exactly one of the memtable and one run.
		n := len(fold.mem)
		for _, sg := range fold.segs {
			n += sg.nRows
		}
		if n == 0 {
			continue // nothing to fold for this table
		}
		path := filepath.Join(segsDir, segFileName(gen, ti))
		seg, err := writeTableRun(path, c.ts.schema, n, func(add func(Row) error) error {
			var addErr error
			iterErr := fold.iterate("", "", &readStats{noFill: true}, func(_ string, row Row) bool {
				addErr = add(row)
				return addErr == nil
			})
			if addErr != nil {
				return addErr
			}
			return iterErr
		})
		if err != nil {
			dropNew(true)
			return 0, 0, err
		}
		seg.cache = sh.cache
		c.seg = seg
		rowsOut += int64(seg.nRows)
		if st, err := os.Stat(path); err == nil {
			bytesOut += st.Size()
		}
	}

	// Phase C: commit. All table locks (sorted — the same (name, shard)
	// order every multi-lock path uses) plus the log lock freeze the
	// shard for the commit.
	for _, name := range lockNames {
		sh.tables[name].mu.Lock()
		defer sh.tables[name].mu.Unlock()
	}
	sh.logMu.Lock()
	defer sh.logMu.Unlock()

	tmpPath := compactTempPath(sh.path)
	staged, err := stageLog(tmpPath, tcs)
	if err != nil {
		dropNew(true)
		return 0, 0, err
	}
	var entries []manifestEntry // in table order, each table's runs oldest first
	for _, c := range tcs {
		for _, sg := range c.ts.segs[:c.from] {
			entries = append(entries, manifestEntry{table: c.name, file: filepath.Base(sg.path)})
		}
		if c.seg != nil {
			entries = append(entries, manifestEntry{table: c.name, file: filepath.Base(c.seg.path)})
		}
	}
	if err := writeManifest(segsDir, gen, entries); err != nil {
		staged.close()
		os.Remove(tmpPath)
		dropNew(true)
		return 0, 0, err
	}

	// The manifest rename is the commit point. From here on a failure
	// latches the shard and removes no run file: until the segments
	// directory's sync returns, a power cut may bring back either
	// manifest, and the old log replays to the same rows over both.
	latch := func(step string, err error) error {
		sh.failed = fmt.Errorf("store: shard %d compact %s: %w (reopen to recover)", sh.id, step, err)
		return sh.failed
	}
	if err := syncDir(segsDir); err != nil {
		staged.close()
		os.Remove(tmpPath)
		dropNew(false)
		return 0, 0, latch("manifest sync", err)
	}
	for _, c := range tcs {
		ts := c.ts
		for _, old := range ts.segs[c.from:] {
			old.markObsolete()
			old.unref()
		}
		ts.segs = ts.segs[:c.from:c.from]
		if c.seg != nil {
			ts.segs = append(ts.segs, c.seg)
		}
		// A copy, so the captured rows' array is freed with the last
		// view that pins it.
		ts.mem = slices.Clone(ts.mem[len(c.snap.mem):])
		// A compaction never changes the set of rows, so the index keys
		// stand; the captured rows now live in the new run and leave the
		// side lists, which stop holding row memory the run persists.
		ts.deinline(c.snap.mem)
	}
	sh.gen = gen
	sh.pending.Store(0)

	if err := os.Rename(tmpPath, sh.path); err != nil {
		staged.close()
		os.Remove(tmpPath)
		return 0, 0, latch("log rename", err)
	}
	// Every record of the old log is in the runs or the staged log, and
	// the rename replaced its file: closing it can lose nothing.
	_ = sh.log.close()
	sh.log = staged
	// The rename is durable only once the log's directory is synced;
	// until then a power cut can bring back the old log, so the new one
	// takes no write before it.
	if err := syncDir(filepath.Dir(sh.path)); err != nil {
		return 0, 0, latch("log rename sync", err)
	}
	return rowsOut, bytesOut, nil
}

// stageLog writes, at path, the log a compaction's commit renames over
// the shard's: schema and index records for every table, then each
// table's residue — whatever its memtable holds beyond the capture the
// new run was built from — as one batch record. The log is synced and
// left open for the shard to append to once renamed; on any error it
// is closed and removed.
func stageLog(path string, tcs []*tableCompact) (*wal, error) {
	var payloads [][]byte
	for _, c := range tcs {
		payloads = append(payloads, encodeCreateTablePayload(c.ts.schema))
		idxCols := make([]string, 0, len(c.ts.secondary))
		for col := range c.ts.secondary {
			idxCols = append(idxCols, col)
		}
		slices.Sort(idxCols)
		for _, col := range idxCols {
			payloads = append(payloads, encodeCreateIndexPayload(c.name, col))
		}
		// The memtable only appended since the capture, so the residue is
		// its tail past the captured rows.
		if residue := c.ts.mem[len(c.snap.mem):]; len(residue) > 0 {
			payloads = append(payloads, encodeBatchPayload(c.name, residue))
		}
	}
	l, err := openWAL(path)
	if err != nil {
		return nil, err
	}
	for _, p := range payloads {
		if err = l.append(p); err != nil {
			break
		}
	}
	if err == nil {
		err = l.sync()
	}
	if err != nil {
		l.close()
		os.Remove(path)
		return nil, err
	}
	return l, nil
}

// writeTableRun streams nRows pk-ascending rows from emit into a new
// segment file at path and opens it. On any error the partial file is
// removed and no descriptor leaks — emit failures close and delete here,
// finish failures (a row count other than nRows among them) clean up
// inside the writer, open failures delete the finished file.
func writeTableRun(path string, schema Schema, nRows int, emit func(add func(Row) error) error) (*segment, error) {
	w, err := newSegmentWriter(path, schema, nRows)
	if err != nil {
		return nil, err
	}
	if err := emit(w.add); err != nil {
		w.f.Close()
		os.Remove(path)
		return nil, err
	}
	if err := w.finish(); err != nil {
		return nil, err
	}
	seg, err := openSegment(path)
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	return seg, nil
}

// compactTempPath is where a compaction stages the truncated log
// before renaming it over the live log; openShard sweeps leftovers.
func compactTempPath(walPath string) string { return walPath + ".compact" }
