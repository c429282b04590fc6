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
	secondary map[string]*index // column name → index
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
// run already holds it, which happens only after a compaction was cut
// short — by a crash or a failed directory sync — between its manifest
// rename and its log rename: the old log replays rows the committed
// runs hold. Any other key must ascend
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
	for _, ix := range ts.secondary {
		for _, mr := range rows {
			ix.add(mr.row, true, false)
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
// on every shard, whose postings carry the include columns beside each
// row's primary key. When the indexed value, the primary key and the
// included columns make up every column, the index covers the table:
// Query answers from it alone and reads no block. (A float index
// covers only when it includes its own column: its key folds -0.0 into
// +0.0.) The index is durable: each shard's WAL carries a create-index
// record, with the include list, re-created on replay and through
// Compact, so once built it exists after every reopen and is
// maintained transactionally by every insert alongside the rows.
// Creating an existing index with the same include list is a no-op;
// with another list it rebuilds the index and logs the new record.
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
func (t *Table) CreateIndex(col string, include ...string) error {
	spec, err := newIndex(&t.schema, col, slices.Clone(include))
	if err != nil {
		return err
	}
	for _, ts := range t.shards {
		ts.mu.Lock()
		defer ts.mu.Unlock()
	}
	if ix, ok := t.shards[0].secondary[col]; ok && slices.Equal(ix.include, spec.include) {
		return nil
	}
	built := make([]*index, len(t.shards))
	errs := make([]error, len(t.shards))
	fanOut(len(t.shards), func(i int) {
		ix := *spec
		built[i], errs[i] = &ix, t.shards[i].buildIndexes([]*index{&ix})
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	var firstErr error
	for i, ts := range t.shards {
		ts.secondary[col] = built[i]
		if err := ts.shard.logCreateIndex(ts.schema.Name, col, spec.include); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// index is one shard's half of a secondary index: a B-tree from each
// indexed value to its posting list, and the columns every posting
// entry carries.
type index struct {
	col     int      // the indexed column
	include []string // the included columns, as CreateIndex named them
	cols    []int    // each posting entry's columns: the primary key, then the included ones
	covered bool     // the postings rebuild every column: Query reads no block
	tree    *btree   // encoded value → *postingList

	// The posting the last add filed under, with its value: a run of
	// rows sharing a value — a patient's rows — costs one key encoding
	// and one tree probe. Equal Values have equal keys.
	lastVal Value
	last    *postingList
}

// newIndex validates an index on column col of s carrying the include
// columns; buildIndexes gives it its tree. An unknown or repeated
// column, or the primary key (every entry carries it), cannot be
// included.
func newIndex(s *Schema, col string, include []string) (*index, error) {
	ix := &index{col: s.colIndex(col), include: include, cols: []int{s.Primary}}
	if ix.col < 0 {
		return nil, fmt.Errorf("store: table %s has no column %s", s.Name, col)
	}
	for _, name := range include {
		ci := s.colIndex(name)
		if ci < 0 || slices.Contains(ix.cols, ci) {
			return nil, fmt.Errorf("store: index on %s.%s cannot include %q: not a column, the primary key or a repeat", s.Name, col, name)
		}
		ix.cols = append(ix.cols, ci)
	}
	known := len(ix.cols)
	if !slices.Contains(ix.cols, ix.col) && s.Columns[ix.col].Type != TFloat {
		known++ // the posting's key gives the indexed value
	}
	ix.covered = known == len(s.Columns)
	return ix, nil
}

// buildIndexes gives each of ixs a fresh tree (a copied index may
// carry another shard's) and fills them all from one walk of the
// shard's runs then its memtable, without installing them. Keys arrive
// ascending, so every posting only appends: memtable rows also enter
// their posting's side list. The streams double as they fill and are
// trimmed to their length once the walk ends. Callers hold the shard's
// lock (or are single-threaded open).
func (ts *tableShard) buildIndexes(ixs []*index) error {
	if len(ixs) == 0 {
		return nil
	}
	for _, ix := range ixs {
		ix.tree, ix.last = newBtree(), nil
	}
	ss := shardSnap{segs: ts.segs} // borrowed refs; not released
	err := ss.iterate("", "", nil, func(_ string, row Row) bool {
		for _, ix := range ixs {
			ix.add(row, false, true)
		}
		return true
	})
	if err != nil {
		return err
	}
	for _, mr := range ts.mem {
		for _, ix := range ixs {
			ix.add(mr.row, true, true)
		}
	}
	for _, ix := range ixs {
		ix.tree.AscendRange("", "", func(_ string, v interface{}) bool {
			if pl := v.(*postingList); cap(pl.stream) > len(pl.stream) {
				pl.stream = slices.Clone(pl.stream)
			}
			return true
		})
	}
	return nil
}

// postingList is the value type of secondary index entries: the rows
// sharing one indexed value, ascending by primary key so reads stream
// them in deterministic order without sorting. Its stream holds, per
// row, the primary-key value and then the index's included columns,
// back to back in the row codec: no per-row Go string or slice header,
// and no second copy of a column the index does not include. The rows
// still in the memtable also sit in mem, a side list that is a suffix
// of the stream (memtable keys are above every run key): mem[i] is the
// row of entry n-len(mem)+i, so reading them costs no memtable probe
// and no decode.
type postingList struct {
	stream []byte
	n      int   // entries in stream
	mem    []Row // the rows of the memtable-resident suffix of stream
}

// add files row — its key above every key already filed — under its
// indexed value: its primary key and included values go to the end of
// the posting's stream, and a memtable row also enters the side list.
// A stream that must grow doubles during a build (which trims it once
// it ends) and otherwise grows by a quarter, at least four entries:
// doubling would leave half of a fresh posting empty, since a new
// patient's rows arrive in one batch, one insert at a time.
func (ix *index) add(row Row, inMem, build bool) {
	pl := ix.last
	if v := row[ix.col]; pl == nil || v != ix.lastVal {
		sk := encodeKey(v)
		if found, ok := ix.tree.Get(sk); ok {
			pl = found.(*postingList)
		} else {
			pl = &postingList{}
			ix.tree.Put(sk, pl)
		}
		ix.lastVal, ix.last = v, pl
	}
	var buf [64]byte
	e := buf[:0]
	for _, c := range ix.cols {
		e = appendValue(e, row[c])
	}
	if n := len(pl.stream); n+len(e) > cap(pl.stream) {
		grow := n / 4
		if build {
			grow = n
		}
		grown := make([]byte, n, n+max(grow, 4*len(e)))
		copy(grown, pl.stream)
		pl.stream = grown
	}
	pl.stream = append(pl.stream, e...)
	pl.n++
	if inMem {
		pl.mem = append(pl.mem, row)
	}
}

// postingRows appends to out the rows of pl, filed under sk, that keep
// accepts, in posting order. The side-list suffix costs nothing. The
// entries before it live in the runs: a covering index rebuilds each
// row from its stream entry and sk, reading no block; any other index
// reads each entry's primary key from the stream and fetches the row
// through one ascending runCursor walk, decoding each touched block
// once. rs may be nil. Callers hold at least the shard's read lock.
func (ts *tableShard) postingRows(ix *index, sk string, pl *postingList, rs *readStats, keep func(Row) bool, out []Row) ([]Row, error) {
	if inRuns := pl.n - len(pl.mem); inRuns > 0 {
		nc := len(ts.schema.Columns)
		s := string(pl.stream) // one copy; decoded strings are substrings of it
		var key Value          // a covered row's indexed value
		var vals []Value       // a chunk of covered rows' values, back to back
		if ix.covered {
			key = decodeKey(sk, ts.schema.Columns[ix.col].Type)
		}
		cur := runCursor{segs: ts.segs}
		var kb [16]byte
		for left := inRuns; left > 0; left-- {
			var row Row
			if ix.covered {
				if len(vals)+nc > cap(vals) {
					// A new chunk, twice the last and at most what the
					// entries left can fill; earlier rows keep theirs.
					vals = make([]Value, 0, nc*min(max(2*cap(vals)/nc, 16), left))
				}
				row = vals[len(vals) : len(vals)+nc : len(vals)+nc]
				row[ix.col] = key
			}
			var pk Value
			for j, c := range ix.cols {
				v, rest, err := decodeValue(s)
				if err != nil {
					return nil, err
				}
				s = rest
				if ix.covered {
					row[c] = v
				} else if j == 0 {
					pk = v
				}
			}
			if !ix.covered {
				var err error
				if row, err = cur.get(appendKey(kb[:0], pk), rs); err != nil {
					return nil, err
				}
			}
			if keep(row) {
				if ix.covered {
					vals = vals[:len(vals)+nc] // the row keeps its slot
				}
				out = append(out, row)
			}
		}
	}
	for _, r := range pl.mem {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out, nil
}

// deinline drops the rows a compaction folded into a run — every key
// up to the capture's last, folded — from the side lists of every
// index: their stream entries stay, and reads fetch them from the run
// or, on a covering index, from the stream. Each touched list loses a
// prefix of its side list, found by comparing primary-key values.
// Callers hold the write lock.
func (ts *tableShard) deinline(folded []memRow) {
	if len(folded) == 0 {
		return
	}
	pk := ts.schema.Primary
	top := folded[len(folded)-1].row[pk]
	for _, ix := range ts.secondary {
		done := make(map[*postingList]bool)
		for i, mr := range folded {
			if i > 0 && mr.row[ix.col] == folded[i-1].row[ix.col] {
				continue // equal values, so the posting just handled
			}
			v, ok := ix.tree.Get(encodeKey(mr.row[ix.col]))
			if !ok || done[v.(*postingList)] {
				continue
			}
			pl := v.(*postingList)
			done[pl] = true
			n := sort.Search(len(pl.mem), func(i int) bool { return cmpValues(pl.mem[i][pk], top) > 0 }) // side-list rows now in the run
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
