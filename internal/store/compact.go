package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Compaction folds a shard's write-ahead log and memtable into
// immutable sorted segment files, in two flavors:
//
//   - A minor compaction writes only the captured memtable rows into
//     one new small segment appended to each table's run stack. Old
//     segments are untouched, tombstones stay in the memtable (masking
//     segment keys until a major merge), and the WAL is truncated to
//     schema/index records plus the residue — whatever changed after
//     the capture. Cost is proportional to the write set since the
//     last compaction, not the corpus.
//
//   - A major compaction merges each table's whole live view (all
//     segment runs + memtable, newest wins, tombstones dropping dead
//     keys) into a single new segment, collapsing the run stack and
//     discarding tombstones whose keys die with the old runs.
//
// Both run in three phases designed to stay off the write path:
// capture (a brief per-table read lock pins segments and copies the
// memtable view), build (segment files are written with NO table lock
// held — writers and readers proceed), and commit (all table locks +
// the log lock, held only to diff the memtable against the capture,
// write the truncated WAL, atomically replace the CRC'd MANIFEST —
// the rename is the commit point — and swap in-memory state).
//
// Every crash window recovers consistently: before the manifest commit
// the old manifest and full WAL are untouched (new segment files are
// swept as strays on reopen); between commit and WAL swap the new
// segments replay under the old WAL, whose records re-apply
// idempotently on top of them; after the swap the truncated WAL's
// residue records replay over the segments alone.
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
func (db *DB) Compact() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if len(db.shards) == 1 {
		return db.compactShard(db.shards[0], majorCompact)
	}
	errs := make([]error, len(db.shards))
	var wg sync.WaitGroup
	for i, sh := range db.shards {
		wg.Add(1)
		go func(i int, sh *Shard) {
			defer wg.Done()
			errs[i] = db.compactShard(sh, majorCompact)
		}(i, sh)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Flush runs a minor compaction of every shard, in parallel: each
// shard's memtable is folded into one new segment run per table. It is
// the explicit way to push recent writes into the segment layer —
// tests and benchmarks use it to build multi-run stacks
// deterministically without waiting for the background compactor.
func (db *DB) Flush() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if len(db.shards) == 1 {
		return db.compactShard(db.shards[0], minorCompact)
	}
	errs := make([]error, len(db.shards))
	var wg sync.WaitGroup
	for i, sh := range db.shards {
		wg.Add(1)
		go func(i int, sh *Shard) {
			defer wg.Done()
			errs[i] = db.compactShard(sh, minorCompact)
		}(i, sh)
	}
	wg.Wait()
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
	name    string
	ts      *tableShard
	snap    shardSnap         // pinned segments + captured memtable view
	capMem  map[string]Row    // captured live memtable rows by encoded pk
	idxCols []string          // secondary-index inventory at capture
	seg     *segment          // the new run (nil: minor with nothing to fold)
	newIdx  map[string]*btree // major: rebuilt by-reference indexes

	// Commit plan, computed under the table's write lock in phase C.
	newMem      *btree
	folded      []Row    // minor: rows moved from memtable to the new run
	rebuildCols []string // major: indexes created after the capture
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
	if err := os.MkdirAll(segsDir, 0o755); err != nil {
		return 0, 0, err
	}
	gen := sh.gen + 1

	lockNames := make([]string, 0, len(sh.tables))
	for n := range sh.tables {
		lockNames = append(lockNames, n)
	}
	sortKeys(lockNames)

	// Phase A: capture. A brief read lock per table pins its segments
	// and copies the memtable view; writers resume immediately after.
	tcs := make([]*tableCompact, 0, len(lockNames))
	defer func() {
		for _, c := range tcs {
			c.snap.release()
		}
	}()
	for _, name := range lockNames {
		ts := sh.tables[name]
		ts.mu.RLock()
		snap := ts.captureLocked(nil, nil)
		idxCols := make([]string, 0, len(ts.secondary))
		for col := range ts.secondary {
			idxCols = append(idxCols, col)
		}
		ts.mu.RUnlock()
		sortKeys(idxCols)
		capMem := make(map[string]Row, len(snap.mem))
		for _, mr := range snap.mem {
			if mr.row != nil {
				capMem[string(mr.key)] = mr.row
			}
		}
		tcs = append(tcs, &tableCompact{name: name, ts: ts, snap: snap, capMem: capMem, idxCols: idxCols})
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
			if len(c.capMem) == 0 {
				continue // nothing to fold for this table
			}
			seg, serr = writeTableRun(path, c.ts.schema, func(add func(Row) error) error {
				for _, mr := range c.snap.mem {
					if mr.row == nil {
						continue
					}
					if err := add(mr.row); err != nil {
						return err
					}
				}
				return nil
			})
		case majorCompact:
			// The merged stream also seeds the fresh by-reference
			// secondary indexes: every captured-live key starts as a
			// segment-resident posting.
			c.newIdx = make(map[string]*btree, len(c.idxCols))
			for _, col := range c.idxCols {
				c.newIdx[col] = newBtree()
			}
			seg, serr = writeTableRun(path, c.ts.schema, func(add func(Row) error) error {
				var addErr error
				iterErr := c.snap.iterate(nil, nil, nil, func(row Row) bool {
					if addErr = add(row); addErr != nil {
						return false
					}
					key := encodeKey(row[c.ts.schema.Primary])
					for _, col := range c.idxCols {
						ci := c.ts.schema.colIndex(col)
						indexAdd(c.newIdx[col], encodeKey(row[ci]), key, nil)
					}
					return true
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
		if seg != nil {
			seg.cache = sh.cache
		}
		c.seg = seg
		rowsOut += int64(seg.nRows)
		if st, err := os.Stat(path); err == nil {
			bytesOut += st.Size()
		}
	}

	// Phase C: commit. All table locks (sorted — the same (name, shard)
	// order every multi-lock path uses) plus the log lock freeze the
	// shard only for the diff-and-swap.
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
		sortKeys(idxCols)
		for _, col := range idxCols {
			if err := tmp.append(encodeCreateIndexPayload(c.name, col)); err != nil {
				cleanup()
				return 0, 0, err
			}
		}
		residueRows, residueDels, err := c.planCommit(mode)
		if err != nil {
			cleanup()
			return 0, 0, err
		}
		if len(residueRows) > 0 {
			if err := tmp.append(encodeBatchPayload(c.name, residueRows)); err != nil {
				cleanup()
				return 0, 0, err
			}
		}
		for _, pk := range residueDels {
			payload := []byte{opDelete}
			payload = appendString(payload, c.name)
			payload = encodeRow(payload, Row{pk})
			if err := tmp.append(payload); err != nil {
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
				ts.primary = c.newMem
				// Folded rows now live in the new run: de-inline their
				// index postings so the index stops holding row memory
				// the segment already persists.
				for col, idx := range ts.secondary {
					ci := ts.schema.colIndex(col)
					for _, row := range c.folded {
						indexAdd(idx, encodeKey(row[ci]), encodeKey(row[ts.schema.Primary]), nil)
					}
				}
			case majorCompact:
				for _, old := range ts.segs {
					old.markObsolete()
					old.unref()
				}
				ts.segs = []*segment{c.seg}
				ts.primary = c.newMem
				ts.secondary = c.newIdx
				// Indexes created between capture and commit were not in
				// the build; rebuild them from the installed state.
				for _, col := range c.rebuildCols {
					if err := ts.createIndexLocked(col); err != nil {
						sh.cstats.noteError(fmt.Errorf("store: compact index rebuild %s.%s: %w", c.name, col, err))
					}
				}
			}
			ts.seq++
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

// planCommit diffs the table's current memtable against the capture
// its new run was built from and computes the post-swap memtable plus
// the residue the truncated WAL must carry. Callers hold the table's
// write lock.
//
// Per current memtable entry:
//
//   - A row content-equal to its captured version is folded: it lives
//     in the new run, leaves the memtable, and (major) keeps its
//     by-reference posting. Equality is by value — the capture copied
//     slice headers, and a post-capture delete+reinsert of identical
//     content is indistinguishable from no write, which is exactly the
//     equivalence the swap needs.
//   - A changed or new row is residue: it stays in the memtable
//     (shadowing the run) and is re-logged as a batch insert.
//   - A tombstone is kept in a minor compaction (old runs survive, so
//     the mask must too) and re-logged as a delete; in a major
//     compaction it is kept only if the new run actually holds its key
//     (deleted after capture), and dropped otherwise — the old runs it
//     masked are gone.
func (c *tableCompact) planCommit(mode compactMode) (residueRows []Row, residueDels []Value, err error) {
	ts := c.ts
	c.newMem = newBtree()
	var segErr error
	matched := 0 // captured keys still present in the memtable
	ts.primary.Ascend(func(key []byte, val interface{}) bool {
		// The captured view of this key — what the new run holds. The
		// capture map answers for captured memtable rows; in a major
		// merge a key may instead have entered the run from an old
		// segment, so fall through to the run itself.
		capRow, inCap := c.capMem[string(key)]
		if inCap {
			matched++
		}
		if !inCap && mode == majorCompact && c.seg != nil {
			capRow, inCap, segErr = c.seg.get(key, nil)
			if segErr != nil {
				return false
			}
		}
		if row, isRow := val.(Row); isRow {
			if inCap && rowsEqual(capRow, row) {
				c.folded = append(c.folded, row)
				return true
			}
			c.newMem.Put(key, row)
			residueRows = append(residueRows, row)
			if mode == majorCompact {
				for col, idx := range c.newIdx {
					ci := ts.schema.colIndex(col)
					if inCap {
						indexRemove(idx, encodeKey(capRow[ci]), key)
					}
					indexAdd(idx, encodeKey(row[ci]), key, row)
				}
			}
			return true
		}
		tomb := val.(tombstone)
		if mode == minorCompact {
			c.newMem.Put(key, tomb)
			residueDels = append(residueDels, tomb.pk)
			return true
		}
		if inCap {
			c.newMem.Put(key, tomb)
			residueDels = append(residueDels, tomb.pk)
			for col, idx := range c.newIdx {
				ci := ts.schema.colIndex(col)
				indexRemove(idx, encodeKey(capRow[ci]), key)
			}
		}
		return true
	})
	if segErr != nil {
		return nil, nil, segErr
	}
	// Captured rows with no memtable entry at all: inserted since the
	// last compaction, then deleted after the capture — the delete saw
	// no segment holding the key and dropped the entry outright, but
	// the key IS in the new run now. Without a mask it would resurrect
	// at the swap, so plant the tombstone the delete would have left.
	if matched < len(c.capMem) {
		for k, capRow := range c.capMem {
			if _, ok := ts.primary.Get([]byte(k)); ok {
				continue
			}
			key := []byte(k)
			tomb := tombstone{pk: capRow[ts.schema.Primary]}
			c.newMem.Put(key, tomb)
			residueDels = append(residueDels, tomb.pk)
			if mode == majorCompact {
				for col, idx := range c.newIdx {
					ci := ts.schema.colIndex(col)
					indexRemove(idx, encodeKey(capRow[ci]), key)
				}
			}
		}
	}
	if mode == majorCompact {
		for col := range ts.secondary {
			if _, ok := c.newIdx[col]; !ok {
				c.rebuildCols = append(c.rebuildCols, col)
			}
		}
		sortKeys(c.rebuildCols)
	}
	return residueRows, residueDels, nil
}

// writeTableRun streams pk-ascending rows from emit into a new segment
// file at path and opens it. On any error the partial file is removed
// and no descriptor leaks — emit failures close and delete here,
// finish failures clean up inside the writer, open failures delete the
// finished file.
func writeTableRun(path string, schema Schema, emit func(add func(Row) error) error) (*segment, error) {
	w, err := newSegmentWriter(path, schema)
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

// rowsEqual reports value equality of two rows.
func rowsEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
