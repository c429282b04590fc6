package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// Compaction folds a shard's write-ahead log and memtable into
// immutable sorted segment files, in two flavors:
//
//   - A minor compaction writes only the captured memtable rows into
//     one new small segment appended to each table's run stack. Old
//     segments are untouched, and the WAL is truncated to schema/index
//     records plus the residue — the rows inserted after the capture.
//     Cost is proportional to the write set since the last compaction,
//     not the corpus.
//
//   - A major compaction rewrites each table's whole view (all segment
//     runs, then the memtable) into a single new segment, collapsing
//     the run stack.
//
// Keys ascend on every shard, so neither merges anything: a minor run's
// keys are all above the older runs', and a major run is the old runs
// and the memtable copied back to back.
//
// Both run in three phases designed to stay off the write path:
// capture (a brief per-table read lock pins segments and takes the
// memtable as a sub-slice), build (segment files are written with NO
// table lock held — writers and readers proceed), and commit (all table
// locks + the log lock, held only to write the truncated WAL with the
// residue — the memtable rows appended after the capture —, atomically
// replace the CRC'd MANIFEST — the rename is the commit point — and
// swap in-memory state, the memtable becoming a copy of the residue).
//
// Every crash window recovers consistently: before the manifest commit
// the old manifest and full WAL are untouched (new segment files are
// swept as strays on reopen); between commit and WAL swap the new
// segments load under the old WAL, whose replay skips every key at or
// below the largest run key without reading a block; after the swap
// the truncated WAL's residue records replay over the segments alone.
type compactMode int

const (
	minorCompact compactMode = iota // fold the memtable into one new run
	majorCompact                    // rewrite every table to a single run
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
	snap shardSnap // pinned segments + captured memtable
	seg  *segment  // the new run (nil: nothing to write)
}

// compactShardLocked is the compaction body; compactMu is held. It
// returns the rows and bytes written into new segment files.
func (db *DB) compactShardLocked(sh *Shard, mode compactMode) (rowsOut, bytesOut int64, err error) {
	if failed := sh.failedErr(); failed != nil {
		// A previous compaction lost this shard's log; pretending the
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

	// Phase A: capture. A brief read lock per table pins its segments
	// and takes the memtable; writers resume immediately after.
	tcs := make([]*tableCompact, 0, len(lockNames))
	defer func() {
		for _, c := range tcs {
			c.snap.release()
		}
	}()
	for _, name := range lockNames {
		ts := sh.tables[name]
		ts.mu.RLock()
		snap := ts.captureLocked()
		ts.mu.RUnlock()
		tcs = append(tcs, &tableCompact{name: name, ts: ts, snap: snap})
	}

	// Phase B: build the new runs with no table lock held — everything
	// here is additive, so an error aborts with the shard untouched.
	if testHookCompactBuild != nil {
		testHookCompactBuild()
	}
	abort := func() {
		for _, c := range tcs {
			if c.seg != nil {
				path := c.seg.path
				c.seg.unref()
				os.Remove(path)
			}
		}
	}
	for ti, c := range tcs {
		path := filepath.Join(segsDir, segFileName(gen, ti))
		var seg *segment
		var serr error
		switch mode {
		case minorCompact:
			if len(c.snap.mem) == 0 {
				continue // nothing to fold for this table
			}
			seg, serr = writeTableRun(path, c.ts.schema, len(c.snap.mem), func(add func(Row) error) error {
				for _, mr := range c.snap.mem {
					if err := add(mr.row); err != nil {
						return err
					}
				}
				return nil
			})
		case majorCompact:
			// Exact: a key lives in exactly one of the memtable and one run.
			n := len(c.snap.mem)
			for _, sg := range c.snap.segs {
				n += sg.nRows
			}
			if n == 0 {
				continue // an empty table keeps no run
			}
			seg, serr = writeTableRun(path, c.ts.schema, n, func(add func(Row) error) error {
				var addErr error
				iterErr := c.snap.iterate("", "", &readStats{noFill: true}, func(_ string, row Row) bool {
					addErr = add(row)
					return addErr == nil
				})
				if addErr != nil {
					return addErr
				}
				return iterErr
			})
		}
		if serr != nil {
			abort()
			return 0, 0, serr
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
	// shard only for the split-and-swap.
	for _, name := range lockNames {
		sh.tables[name].mu.Lock()
		defer sh.tables[name].mu.Unlock()
	}
	sh.logMu.Lock()
	defer sh.logMu.Unlock()

	// The truncated WAL: schema and index records for every table, then
	// the residue — whatever the memtable holds beyond the capture the
	// new runs were built from.
	tmpPath := compactTempPath(sh.path)
	tmp, err := openWAL(tmpPath)
	if err != nil {
		abort()
		return 0, 0, err
	}
	cleanup := func() {
		tmp.close()
		os.Remove(tmpPath)
		abort()
	}
	for _, c := range tcs {
		if err := tmp.append(encodeCreateTablePayload(c.ts.schema)); err != nil {
			cleanup()
			return 0, 0, err
		}
		idxCols := make([]string, 0, len(c.ts.secondary))
		for col := range c.ts.secondary {
			idxCols = append(idxCols, col)
		}
		slices.Sort(idxCols)
		for _, col := range idxCols {
			if err := tmp.append(encodeCreateIndexPayload(c.name, col)); err != nil {
				cleanup()
				return 0, 0, err
			}
		}
		// The memtable only appended since the capture, so the residue is
		// its tail past the captured rows.
		if residue := c.ts.mem[len(c.snap.mem):]; len(residue) > 0 {
			if err := tmp.append(encodeBatchPayload(c.name, residue)); err != nil {
				cleanup()
				return 0, 0, err
			}
		}
	}
	if err := tmp.sync(); err != nil {
		cleanup()
		return 0, 0, err
	}
	if err := tmp.close(); err != nil {
		os.Remove(tmpPath)
		abort()
		return 0, 0, err
	}

	// Manifest commit: the rename is the point of no return — before it
	// the old state is fully intact, after it the new segments are
	// authoritative and the old WAL merely re-applies rows the segments
	// already hold.
	var entries []manifestEntry
	for _, c := range tcs {
		if mode == minorCompact {
			for _, sg := range c.ts.segs {
				entries = append(entries, manifestEntry{table: c.name, file: filepath.Base(sg.path)})
			}
		}
		if c.seg != nil {
			entries = append(entries, manifestEntry{table: c.name, file: filepath.Base(c.seg.path)})
		}
	}
	sortManifestEntries(entries)
	if err := writeManifest(segsDir, gen, entries); err != nil {
		os.Remove(tmpPath)
		abort()
		return 0, 0, err
	}

	// Swap the WAL. Once the old log is closed, sh.log is nilled and
	// any error below latches sh.failed, so later appends report the
	// lost log instead of writing to a closed file; reopening the
	// database recovers from the committed manifest plus whatever WAL
	// survives.
	swapInMemory := func() {
		for _, c := range tcs {
			ts := c.ts
			switch mode {
			case minorCompact:
				if c.seg != nil {
					ts.segs = append(ts.segs, c.seg)
				}
			case majorCompact:
				for _, old := range ts.segs {
					old.markObsolete()
					old.unref()
				}
				ts.segs = nil
				if c.seg != nil {
					ts.segs = []*segment{c.seg}
				}
			}
			// A copy, so the captured rows' array is freed with the
			// last view that pins it.
			ts.mem = slices.Clone(ts.mem[len(c.snap.mem):])
			// A compaction never changes the set of rows, so the index
			// keys stand; the captured rows now live in the new run and
			// leave the side lists, which stop holding row memory the
			// run persists.
			ts.deinline(c.snap.mem)
		}
		sh.gen = gen
		sh.pending.Store(0)
	}
	fail := func(err error) error {
		sh.failed = err
		swapInMemory() // the manifest committed; reads follow it
		return err
	}
	if err := sh.log.close(); err != nil {
		return 0, 0, fail(fmt.Errorf("store: compact close: %w (shard closed; reopen to recover)", err))
	}
	sh.log = nil
	if err := os.Rename(tmpPath, sh.path); err != nil {
		return 0, 0, fail(fmt.Errorf("store: compact rename: %w (shard closed; reopen to recover)", err))
	}
	// The rename is durable only once the log's directory is synced;
	// until then a power cut can bring back the old log, so the new one
	// takes no write before it.
	if err := syncDir(filepath.Dir(sh.path)); err != nil {
		return 0, 0, fail(fmt.Errorf("store: compact rename sync: %w (shard closed; reopen to recover)", err))
	}
	l, err := openWAL(sh.path)
	if err != nil {
		return 0, 0, fail(fmt.Errorf("store: compact reopen: %w (shard closed; reopen to recover)", err))
	}
	if _, err := l.replay(func([]byte) error { return nil }); err != nil {
		l.close()
		return 0, 0, fail(fmt.Errorf("store: compact reopen replay: %w (shard closed; reopen to recover)", err))
	}
	sh.log = l
	sh.walLen.Store(l.len)
	swapInMemory()
	return rowsOut, bytesOut, nil
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

// compactTempPath is where a compaction stages the truncated WAL
// before renaming it over the live log; openShard sweeps leftovers.
func compactTempPath(walPath string) string { return walPath + ".compact" }
