package store

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Column describes one table column.
type Column struct {
	Name string
	Type ColType
}

// Schema describes a table: its columns and the primary-key column index.
type Schema struct {
	Name    string
	Columns []Column
	Primary int // index into Columns of the primary key
}

// colIndex returns the index of the named column, or -1.
func (s *Schema) colIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// validate checks a row against the schema.
func (s *Schema) validate(row Row) error {
	if len(row) != len(s.Columns) {
		return fmt.Errorf("store: table %s: row has %d values, schema has %d columns", s.Name, len(row), len(s.Columns))
	}
	for i, v := range row {
		if v.Type != s.Columns[i].Type {
			return fmt.Errorf("%w: column %s is %s, got %s", ErrTypeMism, s.Columns[i].Name, s.Columns[i].Type, v.Type)
		}
	}
	return nil
}

// Table is a hash-partitioned table: rows live on the shard selected by
// their encoded primary key. Each shard serves its slice from two
// layers: immutable sorted segment files written by compaction, and an
// in-memory memtable (B-tree) holding everything written since — rows,
// plus tombstones masking segment keys deleted after compaction. Point
// operations route to one shard; batch inserts split into per-shard
// sub-batches logged and applied in parallel; scans and range reads
// take a snapshot (pinned segments + captured memtable) and k-way-merge
// it without holding any lock, so a long analytic read never blocks a
// live ingest.
type Table struct {
	schema Schema
	shards []*tableShard
}

// tombstone marks a memtable key deleted after the last compaction: it
// masks any segment-resident row with the same key until a major
// compaction drops both. It carries the primary-key value because the
// key encoding is one-way: a minor compaction re-logs surviving
// tombstones as delete records, which need the Value back.
type tombstone struct{ pk Value }

// tableShard is one shard's slice of a table: its immutable segments,
// the memtable of post-compaction writes, the live-row count, the
// snapshot sequence, and the shard-local halves of every secondary
// index.
type tableShard struct {
	schema    Schema
	shard     *Shard
	mu        sync.RWMutex
	segs      []*segment        // immutable sorted runs, oldest → newest
	primary   *btree            // memtable: pk key bytes → Row | tombstone
	count     int               // live rows (segments + memtable − tombstones)
	seq       uint64            // bumped per mutation; snapshot watermark
	secondary map[string]*btree // column name → key bytes → postingList
}

// Errors returned by table operations.
var (
	ErrDuplicate = errors.New("store: duplicate primary key")
	ErrNotFound  = errors.New("store: not found")
	ErrNoIndex   = errors.New("store: no index on column")
)

// Schema returns a copy of the table's schema.
func (t *Table) Schema() Schema { return t.schema }

// shardFor routes an encoded primary key to its home shard.
func (t *Table) shardFor(key []byte) *tableShard {
	return t.shards[shardIndex(key, len(t.shards))]
}

// segGet searches the shard's segments newest-first for key. rs (may
// be nil) accumulates bloom/cache accounting.
func (ts *tableShard) segGet(key []byte, rs *readStats) (Row, bool, error) {
	for i := len(ts.segs) - 1; i >= 0; i-- {
		row, ok, err := ts.segs[i].get(key, rs)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return row, true, nil
		}
	}
	return nil, false, nil
}

// liveGet resolves key through the layers: a memtable row is live, a
// memtable tombstone is dead (whatever the segments hold), otherwise
// the segments decide. Callers hold at least the read lock.
func (ts *tableShard) liveGet(key []byte) (Row, bool, error) {
	if v, ok := ts.primary.Get(key); ok {
		if row, isRow := v.(Row); isRow {
			return row, true, nil
		}
		return nil, false, nil // tombstone
	}
	return ts.segGet(key, nil)
}

// segsMightHave reports whether key falls inside any segment's zone
// map — the cheap test that lets deletes of never-compacted keys skip
// the tombstone (and the disk).
func (ts *tableShard) segsMightHave(key []byte) bool {
	for _, sg := range ts.segs {
		if len(sg.blocks) > 0 &&
			bytes.Compare(key, sg.minKey) >= 0 && bytes.Compare(key, sg.maxKey) <= 0 {
			return true
		}
	}
	return false
}

// MaxPK returns the largest primary-key value in the table and whether
// the table is non-empty. Id-allocating writers (core.PersistAll) seed
// from it rather than from Len(): after a crash truncates one shard's
// WAL, surviving shards can hold keys far beyond the row count, and
// Len()+1 would collide with them.
func (t *Table) MaxPK() (Value, bool) {
	var best Value
	found := false
	for _, ts := range t.shards {
		pk, ok := ts.maxPK()
		if !ok {
			continue
		}
		if !found || cmpValues(pk, best) > 0 {
			best, found = pk, true
		}
	}
	return best, found
}

// maxPK finds one shard's largest live key. With no segments it is a
// B-tree walk; with segments the shard's snapshot is merged (the
// segment max may be shadowed by a tombstone, so the zone map alone
// cannot answer).
func (ts *tableShard) maxPK() (Value, bool) {
	ts.mu.RLock()
	if len(ts.segs) == 0 {
		defer ts.mu.RUnlock()
		_, v, ok := ts.primary.Max()
		if !ok {
			return Value{}, false
		}
		return v.(Row)[ts.schema.Primary], true
	}
	ss := ts.captureLocked(nil, nil)
	ts.mu.RUnlock()
	defer ss.release()
	var last Row
	_ = ss.iterate(nil, nil, nil, func(r Row) bool { last = r; return true })
	if last == nil {
		return Value{}, false
	}
	return last[ts.schema.Primary], true
}

// Len returns the number of live rows across all shards. The count is
// maintained incrementally by every mutation, so no segment is read.
func (t *Table) Len() int {
	n := 0
	for _, ts := range t.shards {
		ts.mu.RLock()
		n += ts.count
		ts.mu.RUnlock()
	}
	return n
}

// Insert adds a row. The primary key must be unique (routing by key
// hash makes the per-shard check global; the check consults the
// segments' zone maps, so monotonically increasing keys never touch
// disk).
func (t *Table) Insert(row Row) error {
	if err := t.schema.validate(row); err != nil {
		return err
	}
	key := encodeKey(row[t.schema.Primary])
	ts := t.shardFor(key)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.insertLocked(key, row)
}

func (ts *tableShard) insertLocked(key []byte, row Row) error {
	_, live, err := ts.liveGet(key)
	if err != nil {
		return err
	}
	if live {
		return fmt.Errorf("%w: %s", ErrDuplicate, row[ts.schema.Primary])
	}
	if err := ts.shard.logInsert(ts.schema.Name, row); err != nil {
		return err
	}
	ts.applyInsert(key, row)
	return nil
}

// InsertBatch adds many rows with one write-ahead-log record per
// involved shard. The whole batch is validated (schema and primary-key
// uniqueness, including against other rows of the same batch) under
// every involved shard's lock before anything is logged or applied, so
// a validation error leaves the table unchanged on every shard. The
// per-shard sub-batches are then logged and applied in parallel; each
// is atomic on its shard — framed as one CRC-covered record, so a
// crash-torn sub-batch drops whole on that shard's recovery while
// other shards keep theirs (an I/O error mid-flush can likewise leave
// a sub-batch applied on one shard and not another).
func (t *Table) InsertBatch(rows []Row) error {
	if len(rows) == 0 {
		return nil
	}
	n := len(t.shards)
	groups := make([][]Row, n)
	keys := make([][][]byte, n)
	for _, row := range rows {
		if err := t.schema.validate(row); err != nil {
			return err
		}
		key := encodeKey(row[t.schema.Primary])
		si := shardIndex(key, n)
		groups[si] = append(groups[si], row)
		keys[si] = append(keys[si], key)
	}

	// Phase 1: lock involved shards in id order (a fixed order keeps
	// concurrent batches from deadlocking) and validate everything.
	var locked []*tableShard
	unlock := func() {
		for i := len(locked) - 1; i >= 0; i-- {
			locked[i].mu.Unlock()
		}
	}
	for si, g := range groups {
		if len(g) == 0 {
			continue
		}
		ts := t.shards[si]
		ts.mu.Lock()
		locked = append(locked, ts)
		inBatch := make(map[string]bool, len(g))
		for i, row := range g {
			key := keys[si][i]
			_, live, err := ts.liveGet(key)
			if err != nil {
				unlock()
				return err
			}
			if live || inBatch[string(key)] {
				unlock()
				return fmt.Errorf("%w: %s", ErrDuplicate, row[t.schema.Primary])
			}
			inBatch[string(key)] = true
		}
	}
	defer unlock()

	// Phase 2: log and apply per shard, in parallel when partitioned.
	if n == 1 {
		return t.shards[0].logApplyBatch(groups[0], keys[0])
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for si := range groups {
		if len(groups[si]) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			errs[si] = t.shards[si].logApplyBatch(groups[si], keys[si])
		}(si)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// logApplyBatch writes one batch record to the shard's WAL and applies
// the rows. Callers hold the shard's write lock and have validated the
// batch.
func (ts *tableShard) logApplyBatch(rows []Row, keys [][]byte) error {
	if err := ts.shard.logInsertBatch(ts.schema.Name, rows); err != nil {
		return err
	}
	for i, row := range rows {
		ts.applyInsert(keys[i], row)
	}
	return nil
}

// replayInsert applies one row during WAL replay. A duplicate primary
// key replaces the existing row (and its index postings) so that replay
// of any log prefix leaves indexes exactly consistent with the table.
// After a compaction interrupted between its manifest commit and its
// WAL swap, the old WAL replays rows that also live in segments; the
// replace path makes that idempotent.
func (ts *tableShard) replayInsert(row Row) {
	key := encodeKey(row[ts.schema.Primary])
	// A segment read error during replay is treated as key-absent: the
	// memtable version shadows the segment on every read path anyway.
	if old, live, _ := ts.liveGet(key); live {
		ts.applyDelete(key, old)
	}
	ts.applyInsert(key, row)
}

// applyInsert performs the in-memory insert. The key must not be live
// (callers checked); it may be a tombstone, which the row replaces.
func (ts *tableShard) applyInsert(key []byte, row Row) {
	ts.primary.Put(key, row)
	ts.count++
	ts.seq++
	for col, idx := range ts.secondary {
		ci := ts.schema.colIndex(col)
		sk := encodeKey(row[ci])
		indexAdd(idx, sk, key, row)
	}
}

// Get returns the row with the given primary key.
func (t *Table) Get(pk Value) (Row, error) {
	key := encodeKey(pk)
	ts := t.shardFor(key)
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	row, live, err := ts.liveGet(key)
	if err != nil {
		return nil, err
	}
	if !live {
		return nil, ErrNotFound
	}
	return row, nil
}

// Delete removes the row with the given primary key.
func (t *Table) Delete(pk Value) error {
	key := encodeKey(pk)
	ts := t.shardFor(key)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	old, live, err := ts.liveGet(key)
	if err != nil {
		return err
	}
	if !live {
		return ErrNotFound
	}
	if err := ts.shard.logDelete(ts.schema.Name, pk); err != nil {
		return err
	}
	ts.applyDelete(key, old)
	return nil
}

// applyDelete removes a live row: index postings go, and the memtable
// either drops the key or — when a segment may still hold it — takes a
// tombstone so the segment row stays masked until the next compaction.
func (ts *tableShard) applyDelete(key []byte, row Row) {
	for col, idx := range ts.secondary {
		ci := ts.schema.colIndex(col)
		sk := encodeKey(row[ci])
		indexRemove(idx, sk, key)
	}
	if ts.segsMightHave(key) {
		ts.primary.Put(key, tombstone{pk: row[ts.schema.Primary]})
	} else {
		ts.primary.Delete(key)
	}
	ts.count--
	ts.seq++
}

// CreateIndex builds a non-unique secondary index on the named column,
// on every shard. The index is durable: each shard's WAL carries a
// create-index record re-created on replay and through Compact, so once
// built it exists after every reopen and is maintained transactionally
// by Insert/InsertBatch/Delete alongside the rows. Creating an
// existing index is a no-op.
func (t *Table) CreateIndex(col string) error {
	if t.schema.colIndex(col) < 0 {
		return fmt.Errorf("store: table %s has no column %s", t.schema.Name, col)
	}
	// Build the in-memory index on every shard even if logging fails
	// partway: the fan-out planner and whole-table Lookup require the
	// index inventory to be identical across shards. A shard whose
	// create record could not be appended reports the error but still
	// carries the index in memory; the durable inventory is repaired
	// from the other shards' WALs at the next open (buildRouters).
	var firstErr error
	for _, ts := range t.shards {
		ts.mu.Lock()
		if _, ok := ts.secondary[col]; ok {
			ts.mu.Unlock()
			continue
		}
		if err := ts.shard.logCreateIndex(ts.schema.Name, col); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := ts.createIndexLocked(col); err != nil && firstErr == nil {
			firstErr = err
		}
		ts.mu.Unlock()
	}
	return firstErr
}

// createIndexLocked builds the index from the shard's current live
// view: memtable rows carry their values inline; segment-resident rows
// are indexed by reference (primary key only), so the index holds no
// second copy of rows that already live on disk. Callers hold the
// shard's write lock (or are single-threaded WAL replay / open).
func (ts *tableShard) createIndexLocked(col string) error {
	if _, ok := ts.secondary[col]; ok {
		return nil
	}
	idx := newBtree()
	ci := ts.schema.colIndex(col)
	// Segment rows first, merged newest-wins across the stack (an older
	// run's version of a key must not leak a stale posting) and skipping
	// keys the memtable shadows …
	if len(ts.segs) > 0 {
		ss := shardSnap{segs: ts.segs} // borrowed refs; not released
		err := ss.iterate(nil, nil, nil, func(row Row) bool {
			key := encodeKey(row[ts.schema.Primary])
			if _, shadowed := ts.primary.Get(key); !shadowed {
				indexAdd(idx, encodeKey(row[ci]), key, nil)
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	// … then live memtable rows with their values inline.
	ts.primary.Ascend(func(key []byte, val interface{}) bool {
		if row := liveRow(val); row != nil {
			indexAdd(idx, encodeKey(row[ci]), key, row)
		}
		return true
	})
	ts.secondary[col] = idx
	return nil
}

// postingList is the value type of secondary index entries: the rows
// sharing one indexed value, kept sorted by primary-key bytes so reads
// stream them in deterministic order without sorting. An entry's row
// may be nil — the row then lives in a segment and is fetched by key
// on read — so the index never duplicates disk-resident row data in
// memory.
type postingEntry struct {
	pk  string // encoded primary key
	row Row    // inline row, or nil when segment-resident
}

type postingList struct {
	entries []postingEntry // ascending pk
}

// find returns the insertion position of pk and whether it is present.
func (pl *postingList) find(pk string) (int, bool) {
	i := sort.Search(len(pl.entries), func(i int) bool { return pl.entries[i].pk >= pk })
	return i, i < len(pl.entries) && pl.entries[i].pk == pk
}

// resolveAll resolves a pk-sorted posting slice into rows, position for
// position. Inline entries cost nothing; by-reference entries are
// batch-resolved against the segment stack newest-first — each segment
// gets one sorted walk over the still-missing pks (getBatch), so a
// block shared by many entries is read and decoded once per query
// instead of once per row. Callers hold at least the shard's read
// lock. rs may be nil.
func (ts *tableShard) resolveAll(entries []postingEntry, rs *readStats) ([]Row, error) {
	out := make([]Row, len(entries))
	var missing []int
	for i, e := range entries {
		if e.row != nil {
			out[i] = e.row
		} else {
			missing = append(missing, i)
		}
	}
	for i := len(ts.segs) - 1; i >= 0 && len(missing) > 0; i-- {
		var err error
		missing, err = ts.segs[i].getBatch(entries, missing, out, rs)
		if err != nil {
			return nil, err
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("store: index entry references missing segment row (%w)", ErrCorrupt)
	}
	return out, nil
}

func indexAdd(idx *btree, sk, pk []byte, row Row) {
	v, ok := idx.Get(sk)
	if !ok {
		idx.Put(sk, &postingList{entries: []postingEntry{{pk: string(pk), row: row}}})
		return
	}
	pl := v.(*postingList)
	i, found := pl.find(string(pk))
	if found {
		pl.entries[i].row = row
		return
	}
	pl.entries = append(pl.entries, postingEntry{})
	copy(pl.entries[i+1:], pl.entries[i:])
	pl.entries[i] = postingEntry{pk: string(pk), row: row}
}

func indexRemove(idx *btree, sk, pk []byte) {
	if v, ok := idx.Get(sk); ok {
		pl := v.(*postingList)
		if i, found := pl.find(string(pk)); found {
			pl.entries = append(pl.entries[:i], pl.entries[i+1:]...)
		}
		if len(pl.entries) == 0 {
			idx.Delete(sk)
		}
	}
}

// Lookup returns all rows whose indexed column equals v in ascending
// primary-key order: Query's equality path, one posting-list probe per
// shard. The column must have an index (ErrNoIndex otherwise); a value
// of the wrong type is ErrTypeMism.
func (t *Table) Lookup(col string, v Value) ([]Row, error) {
	ts := t.shards[0] // every shard holds the same index inventory
	ts.mu.RLock()
	_, ok := ts.secondary[col]
	ts.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoIndex, col)
	}
	rows, _, err := t.Query(Query{Preds: []Pred{Eq(col, v)}})
	return rows, err
}

// kwayMerge merges per-shard result slices that are each already
// sorted by less into one sorted slice. Each output row costs at most
// shards-1 comparisons and the merge allocates only the output, so the
// fan-out read paths stay close to the single-shard cost.
func kwayMerge(parts [][]Row, less func(a, b Row) bool) []Row {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	out := make([]Row, 0, total)
	idx := make([]int, len(parts))
	for len(out) < total {
		best := -1
		for i, p := range parts {
			if idx[i] >= len(p) {
				continue
			}
			if best < 0 || less(p[idx[i]], parts[best][idx[best]]) {
				best = i
			}
		}
		out = append(out, parts[best][idx[best]])
		idx[best]++
	}
	return out
}

// lessByPK orders rows by primary-key value — identical to the B-trees'
// encoded-key order, because encodeKey is order-preserving within a
// type and a table's primary keys share the schema's type — without
// encoding a key per comparison.
func (t *Table) lessByPK() func(a, b Row) bool {
	pk := t.schema.Primary
	return func(a, b Row) bool { return cmpValues(a[pk], b[pk]) < 0 }
}

// lessByColPK orders rows by an indexed column's value, breaking ties
// by primary key: the order an index walk produces.
func (t *Table) lessByColPK(ci int) func(a, b Row) bool {
	pk := t.schema.Primary
	return func(a, b Row) bool {
		if c := cmpValues(a[ci], b[ci]); c != 0 {
			return c < 0
		}
		return cmpValues(a[pk], b[pk]) < 0
	}
}

// Scan calls fn for every row in ascending primary-key order until fn
// returns false. It runs over a snapshot: each shard's lock is held
// only for the memtable capture, after which fn streams from pinned
// segments and the captured entries with no lock held — a scan of any
// length never blocks a concurrent ingest.
func (t *Table) Scan(fn func(Row) bool) {
	snap := t.Snapshot()
	defer snap.Release()
	_ = snap.Scan(fn) // a segment read error ends the scan early
}

// Select returns all rows matching a predicate, by full scan.
func (t *Table) Select(pred func(Row) bool) []Row {
	var out []Row
	t.Scan(func(r Row) bool {
		if pred(r) {
			out = append(out, r)
		}
		return true
	})
	return out
}
