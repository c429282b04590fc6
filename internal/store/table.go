package store

import (
	"errors"
	"fmt"
	"slices"
	"strings"
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
// in-memory memtable (B-tree) holding the rows written since. The
// table is append-only: a primary key is written once and its row never
// changes, so every key lives in exactly one place — the memtable or
// one run. Point operations route to one shard; batch inserts split
// into per-shard sub-batches logged and applied in parallel; queries
// fan out to every shard and k-way-merge the per-shard answers. A scan
// pins each shard's runs and captures its memtable, then merges them
// without holding any lock, so a long analytic read never blocks a
// live ingest.
type Table struct {
	schema Schema
	shards []*tableShard
}

// tableShard is one shard's slice of a table: its immutable segments,
// the memtable of post-compaction writes, the live-row count, and the
// shard-local halves of every secondary index.
type tableShard struct {
	schema    Schema
	shard     *Shard
	mu        sync.RWMutex
	segs      []*segment        // immutable sorted runs, oldest → newest
	primary   *btree            // memtable: encoded pk → Row
	count     int               // rows (segments + memtable)
	secondary map[string]*btree // column name → encoded value → postingList
}

// Errors returned by table operations.
var (
	ErrDuplicate = errors.New("store: duplicate primary key")
	ErrNotFound  = errors.New("store: not found")
	ErrNoIndex   = errors.New("store: no index on column")
)

// shardFor routes an encoded primary key to its home shard.
func (t *Table) shardFor(key string) *tableShard {
	return t.shards[shardIndex(key, len(t.shards))]
}

// segGet searches the shard's segments newest-first for key. rs (may
// be nil) accumulates bloom/cache accounting.
func (ts *tableShard) segGet(key string, rs *readStats) (Row, bool, error) {
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

// liveGet resolves key through the layers: the memtable, then the
// segments. Callers hold at least the read lock.
func (ts *tableShard) liveGet(key string) (Row, bool, error) {
	if v, ok := ts.primary.Get(key); ok {
		return v.(Row), true, nil
	}
	return ts.segGet(key, nil)
}

// MaxPK returns the largest primary-key value in the table and whether
// the table is non-empty. Id-allocating writers (core.PersistAll) seed
// from it rather than from Len(): after a crash truncates one shard's
// WAL, surviving shards can hold keys far beyond the row count, and
// Len()+1 would collide with them. A segment read error is returned,
// never read as a smaller maximum.
func (t *Table) MaxPK() (Value, bool, error) {
	var best Value
	found := false
	for _, ts := range t.shards {
		pk, ok, err := ts.maxPK()
		if err != nil {
			return Value{}, false, err
		}
		if ok && (!found || cmpValues(pk, best) > 0) {
			best, found = pk, true
		}
	}
	return best, found, nil
}

// maxPK finds one shard's largest key without a merge. No key is ever
// removed, so a run's zone-map maximum is a live key: the answer is the
// memtable's largest key or the largest run maximum, whichever is
// greater. Only that run's last block is read, for the key's Value, and
// no block at all when the memtable holds the maximum.
func (ts *tableShard) maxPK() (Value, bool, error) {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	var memKey string
	var best Value
	ts.primary.Descend(func(key string, val interface{}) bool {
		memKey, best = key, val.(Row)[ts.schema.Primary]
		return false
	})
	var top *segment // the run with the largest maximum
	for _, sg := range ts.segs {
		if len(sg.blocks) > 0 && (top == nil || sg.maxKey > top.maxKey) {
			top = sg
		}
	}
	if top == nil || memKey > top.maxKey {
		return best, memKey != "", nil
	}
	rows, _, err := top.readBlock(len(top.blocks)-1, nil)
	if err != nil {
		return Value{}, false, err
	}
	return rows[len(rows)-1][ts.schema.Primary], true, nil // open rejects empty blocks
}

// Len returns the number of rows across all shards. The count is
// maintained incrementally by every insert, so no segment is read.
func (t *Table) Len() int {
	n := 0
	for _, ts := range t.shards {
		ts.mu.RLock()
		n += ts.count
		ts.mu.RUnlock()
	}
	return n
}

// Insert adds one row: a batch of one.
func (t *Table) Insert(row Row) error { return t.InsertBatch([]Row{row}) }

// InsertBatch adds many rows with one write-ahead-log record per
// involved shard. The whole batch is validated (schema and primary-key
// uniqueness, including against other rows of the same batch) under
// every involved shard's lock before anything is logged or applied, so
// a validation error leaves the table unchanged on every shard. The
// per-shard sub-batches are then logged and applied in parallel; each
// is atomic on its shard — framed as one CRC-covered record, so a
// crash-torn sub-batch drops whole on that shard's recovery while
// other shards keep theirs (an I/O error mid-flush can likewise leave
// a sub-batch applied on one shard and not another). Routing by key
// hash makes each shard's uniqueness check global.
func (t *Table) InsertBatch(rows []Row) error {
	if len(rows) == 0 {
		return nil
	}
	n := len(t.shards)
	groups := make([][]Row, n)
	keys := make([][]string, n)
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
	var involved []int
	unlock := func() {
		for i := len(involved) - 1; i >= 0; i-- {
			t.shards[involved[i]].mu.Unlock()
		}
	}
	for si, g := range groups {
		if len(g) == 0 {
			continue
		}
		ts := t.shards[si]
		ts.mu.Lock()
		involved = append(involved, si)
		inBatch := make(map[string]bool, len(g))
		for i, row := range g {
			key := keys[si][i]
			_, live, err := ts.liveGet(key)
			if err != nil {
				unlock()
				return err
			}
			if live || inBatch[key] {
				unlock()
				return fmt.Errorf("%w: %s", ErrDuplicate, row[t.schema.Primary])
			}
			inBatch[key] = true
		}
	}
	defer unlock()

	// Phase 2: log and apply the sub-batches in parallel.
	errs := make([]error, len(involved))
	fanOut(len(involved), func(i int) {
		si := involved[i]
		errs[i] = t.shards[si].logApplyBatch(groups[si], keys[si])
	})
	return errors.Join(errs...)
}

// logApplyBatch writes one batch record to the shard's WAL and applies
// the rows. Callers hold the shard's write lock and have validated the
// batch.
func (ts *tableShard) logApplyBatch(rows []Row, keys []string) error {
	if err := ts.shard.logInsertBatch(ts.schema.Name, rows); err != nil {
		return err
	}
	for i, row := range rows {
		ts.applyInsert(keys[i], row)
	}
	return nil
}

// replayInsert applies one row during WAL replay; a key that is already
// live is skipped. Keys are written once, so that happens only after a
// compaction interrupted between its manifest commit and its WAL swap:
// the old WAL then replays rows the committed runs already hold, and
// skipping them keeps every key in exactly one place. A segment read
// error is returned, not read as key-absent: that guess could store
// the key twice.
func (ts *tableShard) replayInsert(row Row) error {
	key := encodeKey(row[ts.schema.Primary])
	_, live, err := ts.liveGet(key)
	if err == nil && !live {
		ts.applyInsert(key, row)
	}
	return err
}

// applyInsert performs the in-memory insert. The key must not be live
// (callers checked).
func (ts *tableShard) applyInsert(key string, row Row) {
	ts.primary.Put(key, row)
	ts.count++
	for col, idx := range ts.secondary {
		ci := ts.schema.colIndex(col)
		indexAdd(idx, encodeKey(row[ci]), key, row)
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

// CreateIndex builds a non-unique secondary index on the named column,
// on every shard. The index is durable: each shard's WAL carries a
// create-index record re-created on replay and through Compact, so once
// built it exists after every reopen and is maintained transactionally
// by every insert alongside the rows. Creating an existing index is a
// no-op.
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
		if err := ts.createIndexesLocked([]string{col}); err != nil && firstErr == nil {
			firstErr = err
		}
		ts.mu.Unlock()
	}
	return firstErr
}

// createIndexesLocked builds the shard's indexes on cols, skipping any
// that exist, from one walk of its runs and one of its memtable:
// segment-resident rows are indexed by primary key only, so an index
// holds no second copy of rows that already live on disk; memtable rows
// also enter their posting's side list. Callers hold the shard's write
// lock (or are single-threaded open).
func (ts *tableShard) createIndexesLocked(cols []string) error {
	type build struct {
		col string
		ci  int
		idx *btree
	}
	var builds []build
	for _, col := range cols {
		if _, ok := ts.secondary[col]; !ok {
			builds = append(builds, build{col: col, ci: ts.schema.colIndex(col), idx: newBtree()})
		}
	}
	if len(builds) == 0 {
		return nil
	}
	// Segment rows first, keyed only …
	ss := shardSnap{segs: ts.segs} // borrowed refs; not released
	err := ss.iterate("", "", nil, func(pk string, row Row) bool {
		for _, b := range builds {
			indexAdd(b.idx, encodeKey(row[b.ci]), pk, nil)
		}
		return true
	})
	if err != nil {
		return err
	}
	// … then memtable rows, keyed and in the side lists.
	ts.primary.Ascend(func(pk string, val interface{}) bool {
		for _, b := range builds {
			indexAdd(b.idx, encodeKey(val.(Row)[b.ci]), pk, val.(Row))
		}
		return true
	})
	for _, b := range builds {
		ts.secondary[b.col] = b.idx
	}
	return nil
}

// postingList is the value type of secondary index entries: the
// encoded primary keys of the rows sharing one indexed value, ascending
// so reads stream them in deterministic order without sorting. Keys
// are all it holds for a segment-resident row, which is fetched by key
// on read, so the index never duplicates disk-resident row data in
// memory. The rows still in the memtable also sit in mem, a small side
// list in the same order, merged on read: reading them from the list
// spares a memtable probe per key.
type postingList struct {
	keys []string       // every row's encoded primary key, ascending
	mem  []postingEntry // the memtable-resident rows, ascending pk; a subset of keys
}

// postingEntry is one side-list row of a posting list.
type postingEntry struct {
	pk  string // encoded primary key
	row Row
}

// findMem returns the side-list position of pk and whether it is there.
func (pl *postingList) findMem(pk string) (int, bool) {
	return slices.BinarySearchFunc(pl.mem, pk, func(e postingEntry, pk string) int {
		return strings.Compare(e.pk, pk)
	})
}

// resolveAll resolves a posting list into rows, position for position.
// Side-list rows cost nothing; the other keys are batch-resolved
// against the segment stack newest-first — each segment gets one
// sorted walk over the still-missing keys (getBatch), so a block shared
// by many keys is read and decoded once per query instead of once per
// row. Callers hold at least the shard's read lock. rs may be nil.
func (ts *tableShard) resolveAll(pl *postingList, rs *readStats) ([]Row, error) {
	out := make([]Row, len(pl.keys))
	var missing []int
	mi := 0
	for i, pk := range pl.keys {
		if mi < len(pl.mem) && pl.mem[mi].pk == pk {
			out[i] = pl.mem[mi].row
			mi++
		} else {
			missing = append(missing, i)
		}
	}
	for i := len(ts.segs) - 1; i >= 0 && len(missing) > 0; i-- {
		var err error
		missing, err = ts.segs[i].getBatch(pl.keys, missing, out, rs)
		if err != nil {
			return nil, err
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("store: index entry references missing segment row (%w)", ErrCorrupt)
	}
	return out, nil
}

// indexAdd files pk under the indexed value sk; a non-nil row is a
// memtable row and also enters the side list.
func indexAdd(idx *btree, sk, pk string, row Row) {
	var pl *postingList
	if v, ok := idx.Get(sk); ok {
		pl = v.(*postingList)
	} else {
		pl = &postingList{}
		idx.Put(sk, pl)
	}
	if i, found := slices.BinarySearch(pl.keys, pk); !found {
		if len(pl.keys) == cap(pl.keys) {
			// Grow by a quarter, at least 4 slots. Append's doubling
			// would leave half of a fresh list's slots empty: a new
			// patient's keys arrive in one batch, one insert at a time.
			grown := make([]string, len(pl.keys), len(pl.keys)+max(4, len(pl.keys)/4))
			copy(grown, pl.keys)
			pl.keys = grown
		}
		pl.keys = slices.Insert(pl.keys, i, pk)
	}
	if row == nil {
		return
	}
	if i, found := pl.findMem(pk); found {
		pl.mem[i].row = row
	} else {
		pl.mem = slices.Insert(pl.mem, i, postingEntry{pk: pk, row: row})
	}
}

// deinline drops rows a compaction folded into a segment run from the
// side lists of every index: their keys stay, and reads fetch them from
// the run. Each touched list is filtered once, down to the rows the
// memtable still holds. Callers hold the write lock and have installed
// the post-compaction memtable.
func (ts *tableShard) deinline(folded []memRow) {
	for col, idx := range ts.secondary {
		ci := ts.schema.colIndex(col)
		done := make(map[*postingList]bool)
		for _, mr := range folded {
			v, ok := idx.Get(encodeKey(mr.row[ci]))
			if !ok {
				continue
			}
			pl := v.(*postingList)
			if done[pl] {
				continue
			}
			done[pl] = true
			pl.mem = slices.DeleteFunc(pl.mem, func(e postingEntry) bool {
				_, ok := ts.primary.Get(e.pk)
				return !ok
			})
			if len(pl.mem) == 0 {
				pl.mem = nil
			}
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

// fanOut runs fn(0), …, fn(n-1) concurrently and waits for them all:
// fn(0) on the calling goroutine, the rest on their own, so work for a
// single shard starts no goroutine.
func fanOut(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	fn(0)
	wg.Wait()
}

// kwayMerge merges per-shard result slices that are each already
// sorted by less into one sorted slice. Each output row costs at most
// shards-1 comparisons and the merge allocates only the output; when
// at most one part holds rows, that part is returned as is.
func kwayMerge(parts [][]Row, less func(a, b Row) bool) []Row {
	total, last := 0, 0
	for i, p := range parts {
		total += len(p)
		if len(p) > 0 {
			last = i
		}
	}
	if len(parts[last]) == total {
		return parts[last]
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
// returns false. It is Query with no predicates: each shard's lock is
// held only to pin its runs and capture its memtable, so a scan never
// blocks a concurrent ingest. A segment read error is returned before
// fn sees any row.
func (t *Table) Scan(fn func(Row) bool) error {
	rows, _, err := t.Query(Query{})
	if err != nil {
		return err
	}
	for _, row := range rows {
		if !fn(row) {
			break
		}
	}
	return nil
}
