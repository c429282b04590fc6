package store

import (
	"errors"
	"fmt"
	"slices"
	"sort"
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
// layers: immutable sorted segment runs written by compaction, and an
// in-memory memtable holding the rows written since.
//
// The write contract is that within a shard a table's primary keys
// strictly ascend: InsertBatch accepts a key only when it is above
// every key its shard holds, and refuses any other (a duplicate
// included) with ErrKeyOrder. The table is therefore append-only — a
// key is written once and its row never changes — and its layout is
// fixed by arrival order: a shard's runs hold disjoint ascending key
// ranges, oldest first, and every memtable key is above them all. The
// memtable is an append-only sorted slice; a scan is the runs then the
// memtable, back to back; a point read consults the one run whose zone
// map admits its key, or the memtable. Concurrent callers must act as
// one logical writer: ids allocated outside the lock that orders their
// inserts can reach a shard out of order (core.Ingester allocates and
// inserts on one goroutine).
//
// Point operations route to one shard; batch inserts split into
// per-shard sub-batches logged and applied in parallel; queries fan out
// to every shard and k-way-merge the per-shard answers. A scan pins
// each shard's runs and captures its memtable, then reads them without
// holding any lock, so a long analytic read never blocks a live ingest.
type Table struct {
	schema Schema
	shards []*tableShard
}

// tableShard is one shard's slice of a table: its immutable runs, the
// memtable of post-compaction writes, and the shard-local halves of
// every secondary index.
type tableShard struct {
	schema    Schema
	shard     *Shard
	mu        sync.RWMutex
	segs      []*segment        // immutable sorted runs, oldest → newest, disjoint ascending key ranges
	mem       []memRow          // memtable: ascending keys, all above every run key
	secondary map[string]*btree // column name → encoded value → postingList
}

// memRow is one memtable row with its encoded primary key.
type memRow struct {
	key string
	row Row
}

// Errors returned by table operations.
var (
	// ErrKeyOrder reports a primary key that is not above every key its
	// shard already holds — a duplicate among them. Nothing of the
	// batch carrying it is logged or applied on any shard.
	ErrKeyOrder = errors.New("store: primary key not above every key its shard holds")
	ErrNotFound = errors.New("store: not found")
	ErrNoIndex  = errors.New("store: no index on column")

	// errMissingRow reports an index key that no run holds.
	errMissingRow = fmt.Errorf("store: index entry references missing segment row (%w)", ErrCorrupt)
)

// shardFor routes an encoded primary key to its home shard.
func (t *Table) shardFor(key string) *tableShard {
	return t.shards[shardIndex(key, len(t.shards))]
}

// runMaxKey is the largest key the shard's runs hold: the newest run's
// zone-map maximum (open drops empty runs and compaction writes none),
// or "" — below every key — when there is no run.
func (ts *tableShard) runMaxKey() string {
	if n := len(ts.segs); n > 0 {
		return ts.segs[n-1].maxKey
	}
	return ""
}

// lastKey is the largest key the shard holds, read from memory alone:
// the memtable's last key, else the newest run's maximum.
func (ts *tableShard) lastKey() string {
	if n := len(ts.mem); n > 0 {
		return ts.mem[n-1].key
	}
	return ts.runMaxKey()
}

// rows is the shard's row count: the runs' footer counts plus the
// memtable. Callers hold at least the read lock.
func (ts *tableShard) rows() int {
	n := len(ts.mem)
	for _, sg := range ts.segs {
		n += sg.nRows
	}
	return n
}

// segGet reads key from the one run whose zone map can admit it — the
// first whose maximum is not below it. rs (may be nil) accumulates
// cache accounting. Callers hold at least the read lock.
func (ts *tableShard) segGet(key string, rs *readStats) (Row, bool, error) {
	i := sort.Search(len(ts.segs), func(i int) bool { return ts.segs[i].maxKey >= key })
	if i == len(ts.segs) {
		return nil, false, nil
	}
	return ts.segs[i].get(key, rs)
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

// maxPK is one shard's largest key: the memtable's last row, or else
// the last row of the newest run's last block — the only block read.
func (ts *tableShard) maxPK() (Value, bool, error) {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	if n := len(ts.mem); n > 0 {
		return ts.mem[n-1].row[ts.schema.Primary], true, nil
	}
	if len(ts.segs) == 0 {
		return Value{}, false, nil
	}
	top := ts.segs[len(ts.segs)-1]
	rows, _, err := top.readBlock(len(top.blocks)-1, nil)
	if err != nil {
		return Value{}, false, err
	}
	return rows[len(rows)-1][ts.schema.Primary], true, nil // open rejects empty blocks
}

// Len returns the number of rows across all shards, from the runs'
// footer counts and the memtables: no segment block is read.
func (t *Table) Len() int {
	n := 0
	for _, ts := range t.shards {
		ts.mu.RLock()
		n += ts.rows()
		ts.mu.RUnlock()
	}
	return n
}

// Insert adds one row: a batch of one.
func (t *Table) Insert(row Row) error { return t.InsertBatch([]Row{row}) }

// InsertBatch adds many rows with one write-ahead-log record per
// involved shard. Each shard's sub-batch must strictly ascend and start
// above every key the shard holds; a key that does not — a duplicate
// included — fails the whole batch with ErrKeyOrder. The whole batch is
// checked (schema and key order) under every involved shard's lock
// before anything is logged or applied, so a refused batch leaves every
// shard's rows, log and indexes unchanged. The per-shard sub-batches
// are then logged and applied in parallel; each is atomic on its shard
// — framed as one CRC-covered record, so a crash-torn sub-batch drops
// whole on that shard's recovery while other shards keep theirs (an I/O
// error mid-flush can likewise leave a sub-batch applied on one shard
// and not another). Keys allocated in ascending order by one writer
// (core.PersistAll from MaxPK()+1) always satisfy the contract.
func (t *Table) InsertBatch(rows []Row) error {
	if len(rows) == 0 {
		return nil
	}
	n := len(t.shards)
	groups := make([][]memRow, n)
	for _, row := range rows {
		if err := t.schema.validate(row); err != nil {
			return err
		}
		key := encodeKey(row[t.schema.Primary])
		si := shardIndex(key, n)
		if g := groups[si]; len(g) > 0 && key <= g[len(g)-1].key {
			return fmt.Errorf("%w: %s", ErrKeyOrder, row[t.schema.Primary])
		}
		groups[si] = append(groups[si], memRow{key: key, row: row})
	}

	// Phase 1: lock involved shards in id order (a fixed order keeps
	// concurrent batches from deadlocking) and check each sub-batch
	// starts above its shard's last key.
	var involved []int
	defer func() {
		for i := len(involved) - 1; i >= 0; i-- {
			t.shards[involved[i]].mu.Unlock()
		}
	}()
	for si, g := range groups {
		if len(g) == 0 {
			continue
		}
		ts := t.shards[si]
		ts.mu.Lock()
		involved = append(involved, si)
		if g[0].key <= ts.lastKey() {
			return fmt.Errorf("%w: %s", ErrKeyOrder, g[0].row[t.schema.Primary])
		}
	}

	// Phase 2: log and apply the sub-batches in parallel.
	errs := make([]error, len(involved))
	fanOut(len(involved), func(i int) {
		si := involved[i]
		errs[i] = t.shards[si].logApplyBatch(groups[si])
	})
	return errors.Join(errs...)
}

// logApplyBatch writes one batch record to the shard's WAL and applies
// the rows. Callers hold the shard's write lock and have checked the
// batch.
func (ts *tableShard) logApplyBatch(rows []memRow) error {
	if err := ts.shard.logInsertBatch(ts.schema.Name, rows); err != nil {
		return err
	}
	ts.apply(rows)
	return nil
}

// replayBatch applies one logged sub-batch during WAL replay, from
// memory alone. A key at or below the largest run key is skipped: a
// run already holds it, which happens only after a compaction
// interrupted between its manifest commit and its WAL swap, whose old
// log replays rows the committed runs hold. Any other key must ascend
// past the shard's last key; one that does not makes the whole record
// ErrCorrupt, and replay cuts the log there like any malformed record.
func (ts *tableShard) replayBatch(rows []Row) error {
	runMax, last := ts.runMaxKey(), ts.lastKey()
	apply := make([]memRow, 0, len(rows))
	for _, row := range rows {
		key := encodeKey(row[ts.schema.Primary])
		if key <= runMax {
			continue
		}
		if key <= last {
			return fmt.Errorf("%w: replayed key %s out of order", ErrCorrupt, row[ts.schema.Primary])
		}
		apply = append(apply, memRow{key: key, row: row})
		last = key
	}
	ts.apply(apply)
	return nil
}

// apply appends checked rows to the memtable and to every index: each
// key is above every key already held, so every posting list and side
// list only appends.
func (ts *tableShard) apply(rows []memRow) {
	if n := len(ts.mem) + len(rows); n > cap(ts.mem) {
		// Double: past 256 elements append grows by about a quarter,
		// allocating some five times a large memtable's final size as
		// it fills. A view that pins the old array keeps it intact.
		grown := make([]memRow, len(ts.mem), max(n, 2*cap(ts.mem)))
		copy(grown, ts.mem)
		ts.mem = grown
	}
	ts.mem = append(ts.mem, rows...)
	for col, idx := range ts.secondary {
		ci := ts.schema.colIndex(col)
		for _, mr := range rows {
			indexAdd(idx, encodeKey(mr.row[ci]), mr.key, mr.row)
		}
	}
}

// Get returns the row with the given primary key.
func (t *Table) Get(pk Value) (Row, error) {
	key := encodeKey(pk)
	ts := t.shardFor(key)
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	if key > ts.runMaxKey() {
		if i, ok := slices.BinarySearchFunc(ts.mem, key, cmpMemKey); ok {
			return ts.mem[i].row, nil
		}
		return nil, ErrNotFound
	}
	row, ok, err := ts.segGet(key, nil)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrNotFound
	}
	return row, nil
}

// cmpMemKey orders a memtable row against an encoded key.
func cmpMemKey(mr memRow, key string) int { return strings.Compare(mr.key, key) }

// CreateIndex builds a non-unique secondary index on the named column,
// on every shard. The index is durable: each shard's WAL carries a
// create-index record re-created on replay and through Compact, so once
// built it exists after every reopen and is maintained transactionally
// by every insert alongside the rows. Creating an existing index is a
// no-op.
//
// Every shard's lock is held while the index is built on every shard
// (in memory, from one walk of each shard's runs and memtable); only
// when every build has succeeded is it installed and logged. A failed
// build — a corrupt run block — therefore installs and logs nothing, so
// every shard keeps the same index inventory and the next open sees no
// record naming an index it cannot build. A log append that fails after
// that still installs the index everywhere (the fan-out planner needs
// identical inventories); the next open repairs the missing record from
// the other shards' logs (buildRouters).
func (t *Table) CreateIndex(col string) error {
	if t.schema.colIndex(col) < 0 {
		return fmt.Errorf("store: table %s has no column %s", t.schema.Name, col)
	}
	for _, ts := range t.shards {
		ts.mu.Lock()
		defer ts.mu.Unlock()
	}
	if _, ok := t.shards[0].secondary[col]; ok {
		return nil
	}
	built := make([][]*btree, len(t.shards))
	errs := make([]error, len(t.shards))
	fanOut(len(t.shards), func(i int) {
		built[i], errs[i] = t.shards[i].buildIndexes([]string{col})
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	var firstErr error
	for i, ts := range t.shards {
		ts.secondary[col] = built[i][0]
		if err := ts.shard.logCreateIndex(ts.schema.Name, col); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// buildIndexes builds an index on each of cols from one walk of the
// shard's runs then its memtable, without installing them. Keys arrive
// ascending, so every posting list only appends: run rows enter by
// primary key only, so an index holds no second copy of rows that
// already live on disk; memtable rows also enter their posting's side
// list. Callers hold the shard's lock (or are single-threaded open).
func (ts *tableShard) buildIndexes(cols []string) ([]*btree, error) {
	if len(cols) == 0 {
		return nil, nil
	}
	cis := make([]int, len(cols))
	idxs := make([]*btree, len(cols))
	for i, col := range cols {
		cis[i], idxs[i] = ts.schema.colIndex(col), newBtree()
	}
	ss := shardSnap{segs: ts.segs} // borrowed refs; not released
	err := ss.iterate("", "", nil, func(pk string, row Row) bool {
		for i, idx := range idxs {
			indexAdd(idx, encodeKey(row[cis[i]]), pk, nil)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	for _, mr := range ts.mem {
		for i, idx := range idxs {
			indexAdd(idx, encodeKey(mr.row[cis[i]]), mr.key, mr.row)
		}
	}
	return idxs, nil
}

// postingList is the value type of secondary index entries: the
// encoded primary keys of the rows sharing one indexed value, ascending
// so reads stream them in deterministic order without sorting. Keys
// are all it holds for a segment-resident row, which is fetched by key
// on read, so the index never duplicates disk-resident row data in
// memory. The rows still in the memtable also sit in mem, a side list
// that is a suffix of keys (memtable keys are above every run key):
// mem[i] is the row of keys[len(keys)-len(mem)+i], so reading them
// costs no memtable probe.
type postingList struct {
	keys []string // every row's encoded primary key, ascending
	mem  []Row    // the rows of the memtable-resident suffix of keys
}

// resolveAll resolves a posting list into rows, position for position.
// The side-list suffix costs nothing; the keys before it live in the
// runs, and both they and the runs ascend, so each run resolves its
// slice of them in one sorted walk (getBatch) that decodes each touched
// block once per query instead of once per row. Callers hold at least
// the shard's read lock. rs may be nil.
func (ts *tableShard) resolveAll(pl *postingList, rs *readStats) ([]Row, error) {
	out := make([]Row, len(pl.keys))
	inRuns := len(pl.keys) - len(pl.mem)
	copy(out[inRuns:], pl.mem)
	keys, rest := pl.keys[:inRuns], out[:inRuns]
	for _, sg := range ts.segs {
		n := sort.Search(len(keys), func(i int) bool { return keys[i] > sg.maxKey }) // the keys this run can hold
		if err := sg.getBatch(keys[:n], rest[:n], rs); err != nil {
			return nil, err
		}
		keys, rest = keys[n:], rest[n:]
	}
	if len(keys) > 0 {
		return nil, errMissingRow
	}
	return out, nil
}

// indexAdd files pk — above every key already filed — under the
// indexed value sk; a non-nil row is a memtable row and also enters the
// side list.
func indexAdd(idx *btree, sk, pk string, row Row) {
	var pl *postingList
	if v, ok := idx.Get(sk); ok {
		pl = v.(*postingList)
	} else {
		pl = &postingList{}
		idx.Put(sk, pl)
	}
	if len(pl.keys) == cap(pl.keys) {
		// Grow by a quarter, at least 4 slots. Append's doubling would
		// leave half of a fresh list's slots empty: a new patient's keys
		// arrive in one batch, one insert at a time.
		grown := make([]string, len(pl.keys), len(pl.keys)+max(4, len(pl.keys)/4))
		copy(grown, pl.keys)
		pl.keys = grown
	}
	pl.keys = append(pl.keys, pk)
	if row != nil {
		pl.mem = append(pl.mem, row)
	}
}

// deinline drops the rows a compaction folded into a run — every key
// up to the capture's last, folded — from the side lists of every
// index: their keys stay, and reads fetch them from the run. Each
// touched list loses a prefix of its side list. Callers hold the write
// lock.
func (ts *tableShard) deinline(folded []memRow) {
	if len(folded) == 0 {
		return
	}
	top := folded[len(folded)-1].key
	for col, idx := range ts.secondary {
		ci := ts.schema.colIndex(col)
		done := make(map[*postingList]bool)
		for _, mr := range folded {
			v, ok := idx.Get(encodeKey(mr.row[ci]))
			if !ok || done[v.(*postingList)] {
				continue
			}
			pl := v.(*postingList)
			done[pl] = true
			memKeys := pl.keys[len(pl.keys)-len(pl.mem):]
			n := sort.Search(len(memKeys), func(i int) bool { return memKeys[i] > top }) // side-list rows now in the run
			pl.mem = slices.Delete(pl.mem, 0, n)
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

// lessByPK orders rows by primary-key value — identical to the store's
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
