package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- segment file format ---

// TestSegmentRoundTrip pins the writer/reader contract: rows stream in
// pk order, the footer self-describes, point gets and bounded iterators
// agree with the input, and zone maps prune blocks the bounds miss.
func TestSegmentRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.seg")
	s := attrSchema()
	const n = 1000 // ~4 blocks at 256 rows/block
	w, err := newSegmentWriter(path, s, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		row := Row{Int(int64(i)), Int(int64(i % 50)), Str("pulse"), Str("v"), Float(float64(i))}
		if err := w.add(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.finish(); err != nil {
		t.Fatal(err)
	}
	sg, err := openSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sg.unref()
	if sg.nRows != n {
		t.Fatalf("nRows = %d, want %d", sg.nRows, n)
	}
	if !schemaEqual(sg.schema, s) {
		t.Fatalf("footer schema mismatch: %+v", sg.schema)
	}
	if len(sg.blocks) < 3 {
		t.Fatalf("expected multiple blocks, got %d", len(sg.blocks))
	}
	// Point gets: every present key, plus misses inside and outside the
	// key range.
	for _, pk := range []int64{1, 2, 255, 256, 257, 999, 1000} {
		row, ok, err := sg.get(encodeKey(Int(pk)), nil)
		if err != nil || !ok {
			t.Fatalf("get(%d): ok=%v err=%v", pk, ok, err)
		}
		if row[0].I != pk {
			t.Fatalf("get(%d) returned pk %d", pk, row[0].I)
		}
	}
	for _, pk := range []int64{0, 1001, 5000} {
		if _, ok, err := sg.get(encodeKey(Int(pk)), nil); ok || err != nil {
			t.Fatalf("get(%d): ok=%v err=%v, want miss", pk, ok, err)
		}
	}
	// Full iteration order.
	ss := shardSnap{segs: []*segment{sg}}
	prev := int64(0)
	count := 0
	err = ss.iterate("", "", nil, func(_ string, row Row) bool {
		if got := row[0].I; got != prev+1 {
			t.Fatalf("iteration out of order: %d after %d", got, prev)
		}
		prev = row[0].I
		count++
		return true
	})
	if err != nil || count != n {
		t.Fatalf("iterated %d rows, err %v", count, err)
	}
	// Bounded iteration prunes blocks outside [600, 700).
	var rs readStats
	count = 0
	err = ss.iterate(encodeKey(Int(600)), encodeKey(Int(700)), &rs, func(_ string, row Row) bool {
		if pk := row[0].I; pk < 600 || pk >= 700 {
			t.Fatalf("bounded iterator leaked pk %d", pk)
		}
		count++
		return true
	})
	if err != nil || count != 100 {
		t.Fatalf("bounded iteration saw %d rows (err %v), want 100", count, err)
	}
	if rs.blocksPruned == 0 {
		t.Fatal("bounded iteration pruned no blocks")
	}
}

// TestSegmentRejectsCorruption flips every byte region that matters and
// expects a clean error, never a panic or a silent success.
func TestSegmentRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.seg")
	w, err := newSegmentWriter(path, attrSchema(), 300)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 300; i++ {
		if err := w.add(Row{Int(int64(i)), Int(1), Str("a"), Str("v"), Float(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.finish(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		off  int
	}{
		{"header-magic", 0},
		{"block-body", len(segMagic) + 10},
		{"tail-magic", len(good) - 1},
		{"meta-crc", len(good) - segTailLen + 9},
	} {
		bad := append([]byte(nil), good...)
		bad[tc.off] ^= 0xff
		p := filepath.Join(dir, tc.name+".seg")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		sg, err := openSegment(p)
		if err == nil {
			// A corrupt block body is only detected when the block is
			// read; the open validates the footer alone.
			ss := shardSnap{segs: []*segment{sg}}
			err := ss.iterate("", "", nil, func(string, Row) bool { return true })
			sg.unref()
			if err == nil {
				t.Errorf("%s: corruption undetected", tc.name)
			}
		}
	}
	// Truncations at every plausible boundary must be rejected cleanly.
	for _, cut := range []int{0, 1, len(segMagic), len(good) / 2, len(good) - segTailLen, len(good) - 1} {
		p := filepath.Join(dir, fmt.Sprintf("cut-%d.seg", cut))
		if err := os.WriteFile(p, good[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if sg, err := openSegment(p); err == nil {
			sg.unref()
			t.Errorf("truncation at %d opened successfully", cut)
		}
	}
}

// --- compaction to segments ---

// segFilesOf lists the segment directory contents for a single-file
// store at path.
func segFilesOf(t *testing.T, path string) []string {
	t.Helper()
	ents, err := os.ReadDir(segsDirFor(path))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// collectRows drains a table scan into a slice.
func collectRows(tbl *Table) []Row {
	var out []Row
	tbl.Scan(func(r Row) bool { out = append(out, r); return true })
	return out
}

// scanWhere returns the rows of a full scan that satisfy pred.
func scanWhere(t testing.TB, tbl *Table, pred func(Row) bool) []Row {
	t.Helper()
	var out []Row
	if err := tbl.Scan(func(r Row) bool {
		if pred(r) {
			out = append(out, r)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCompactEmitsSegments is the tentpole's happy path on a
// single-file store: compaction produces a manifest plus one segment
// per table, shrinks the WAL to schema/index records, and every read
// path (Get, Lookup, Query, Scan, reopen) serves the same rows from
// segments + memtable as it did from memory alone.
func TestCompactEmitsSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "extracted.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillAttrs(t, tbl, 40)
	if err := tbl.CreateIndex("patient"); err != nil {
		t.Fatal(err)
	}
	want := collectRows(tbl)
	wantLen := tbl.Len()
	pre := db.LogSize()

	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if post := db.LogSize(); post >= pre {
		t.Errorf("compact did not shrink the log: %d -> %d", pre, post)
	}
	files := segFilesOf(t, path)
	if len(files) != 2 || files[0] != manifestName || !strings.HasSuffix(files[1], ".seg") {
		t.Fatalf("segment dir = %v, want [MANIFEST seg-*.seg]", files)
	}
	if st := tbl.Stats(); st.Segments != 1 || st.Rows != wantLen {
		t.Fatalf("Stats after compact: %+v, want 1 segment, %d rows", st, wantLen)
	}

	checkParity := func(label string, tbl *Table) {
		t.Helper()
		if got := tbl.Len(); got != wantLen {
			t.Fatalf("%s: Len = %d, want %d", label, got, wantLen)
		}
		got := collectRows(tbl)
		if len(got) != len(want) {
			t.Fatalf("%s: scan returned %d rows, want %d", label, len(got), len(want))
		}
		for i := range got {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("%s: scan row %d = %v, want %v", label, i, got[i], want[i])
			}
		}
		row, err := tbl.Get(Int(7))
		if err != nil || row[0].I != 7 {
			t.Fatalf("%s: Get(7) = %v, %v", label, row, err)
		}
		byPatient, err := tbl.Lookup("patient", Int(3))
		if err != nil || len(byPatient) != 3 {
			t.Fatalf("%s: Lookup(patient=3) = %d rows, err %v; want 3", label, len(byPatient), err)
		}
		rows, st, err := tbl.Query(Query{Preds: []Pred{Eq("patient", Int(5))}})
		if err != nil || !st.UsedIndex || len(rows) != 3 {
			t.Fatalf("%s: indexed query = %d rows, stats %+v, err %v", label, len(rows), st, err)
		}
	}
	checkParity("after compact", tbl)
	checkIndexConsistent(t, tbl)

	// Post-compaction writes land in the memtable; a key a run holds
	// stays written once.
	if err := tbl.Insert(Row{Int(9001), Int(41), Str("pulse"), Str("x"), Float(70)}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(Row{Int(7), Int(2), Str("weight"), Str("re"), Float(1)}); !errors.Is(err, ErrKeyOrder) {
		t.Fatalf("re-insert of a run key: %v, want ErrKeyOrder", err)
	}
	if got := tbl.Len(); got != wantLen+1 {
		t.Fatalf("Len after insert = %d, want %d", got, wantLen+1)
	}
	checkIndexConsistent(t, tbl)

	// Reopen: manifest segments + truncated WAL reproduce the state.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Health().RecoveredWithLoss {
		t.Fatal("clean reopen reported loss")
	}
	tbl, err = db.Table("extracted")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Len(); got != wantLen+1 {
		t.Fatalf("Len after reopen = %d, want %d", got, wantLen+1)
	}
	if row, err := tbl.Get(Int(7)); err != nil || row[3].S != "x" {
		t.Fatalf("Get(7) after reopen = %v, %v", row, err)
	}
	if _, err := tbl.Get(Int(9001)); err != nil {
		t.Fatalf("post-compaction insert lost on reopen: %v", err)
	}
	checkIndexConsistent(t, tbl)

	// A second compaction folds memtable + old segment into a new
	// generation and still round-trips.
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Len(); got != wantLen+1 {
		t.Fatalf("Len after second compact = %d, want %d", got, wantLen+1)
	}
	checkIndexConsistent(t, tbl)
}

// TestScanReturnsReadErrors: a corrupt block in a flushed run must
// surface from Table.Scan as an error wrapping ErrCorrupt, never as a
// silently short result.
func TestScanReturnsReadErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scan.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillAttrs(t, tbl, 200) // 600 rows: three blocks
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	var segPath string
	for _, name := range segFilesOf(t, path) {
		if strings.HasSuffix(name, ".seg") {
			segPath = filepath.Join(segsDirFor(path), name)
		}
	}
	raw, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(segMagic)+10] ^= 0xff // inside the first block
	if err := os.WriteFile(segPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if tbl, err = db.Table("extracted"); err != nil {
		t.Fatal(err)
	}
	n := 0
	err = tbl.Scan(func(Row) bool { n++; return true })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Scan over a corrupt block returned %v after %d rows, want ErrCorrupt", err, n)
	}
}

// TestOpenKeepsLogOnCorruptBlock damages block 0 of a table's oldest
// run, under 10 rows that only the WAL holds, and reopens. Open reads no
// block to count rows, so an unindexed table opens healthy with every
// row counted and the damage surfaces where a read meets it: Scan
// returns ErrCorrupt. Rebuilding an index on open must read every run;
// that read error fails Open with ErrCorrupt instead of being taken for
// a corrupt log tail. Either way the WAL is byte-identical afterwards.
func TestOpenKeepsLogOnCorruptBlock(t *testing.T) {
	for _, runs := range []int{1, 2} {
		for _, indexed := range []bool{false, true} {
			t.Run(fmt.Sprintf("runs=%d/indexed=%v", runs, indexed), func(t *testing.T) {
				testOpenKeepsLogOnCorruptBlock(t, runs, indexed)
			})
		}
	}
}

func testOpenKeepsLogOnCorruptBlock(t *testing.T, runs int, indexed bool) {
	path := filepath.Join(t.TempDir(), "corrupt.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	if indexed {
		if err := tbl.CreateIndex("attribute"); err != nil {
			t.Fatal(err)
		}
	}
	insert := func(lo, n int64) {
		t.Helper()
		var rows []Row
		for pk := lo; pk < lo+n; pk++ {
			rows = append(rows, Row{Int(pk), Int(pk % 7), Str("pulse"), Str("v"), Float(0)})
		}
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < runs; r++ {
		insert(int64(r*600+1), 600) // three blocks per run
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	insert(int64(runs*600+1), 10) // acknowledged, WAL only
	want := tbl.Len()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	var segPaths []string
	for _, name := range segFilesOf(t, path) {
		if strings.HasSuffix(name, ".seg") {
			segPaths = append(segPaths, filepath.Join(segsDirFor(path), name))
		}
	}
	if len(segPaths) != runs {
		t.Fatalf("%d segment files, want %d", len(segPaths), runs)
	}
	raw, err := os.ReadFile(segPaths[0]) // generation-major names: the oldest run
	if err != nil {
		t.Fatal(err)
	}
	raw[len(segMagic)+10] ^= 0xff // inside block 0
	if err := os.WriteFile(segPaths[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	walBefore, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkWAL := func() {
		t.Helper()
		walAfter, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(walAfter, walBefore) {
			t.Fatalf("open rewrote the WAL: %d bytes before, %d after", len(walBefore), len(walAfter))
		}
	}

	db, err = Open(path)
	if indexed {
		if err == nil {
			db.Close()
		}
		checkWAL()
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open rebuilding an index over a corrupt block returned %v, want ErrCorrupt", err)
		}
		return
	}
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	checkWAL()
	if h := db.Health(); !h.Ok() {
		t.Fatalf("Health = %v, want ok", h)
	}
	if tbl, err = db.Table("extracted"); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Len(); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if err := tbl.Scan(func(Row) bool { return true }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Scan over a corrupt block returned %v, want ErrCorrupt", err)
	}
}

// TestOpenReadsEachBlockOnce: Open builds every index the log names
// after replay, from one walk of each table's runs, so a table with two
// indexes over two runs reads each run block exactly once — the
// block-cache counters see one hit or miss per block — and the indexes
// it builds match the table, WAL-only rows included.
func TestOpenReadsEachBlockOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "twoidx.db")
	db, err := OpenSharded(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"attribute", "patient"} {
		if err := tbl.CreateIndex(col); err != nil {
			t.Fatal(err)
		}
	}
	insert := func(lo, n int64) {
		t.Helper()
		var rows []Row
		for pk := lo; pk < lo+n; pk++ {
			rows = append(rows, Row{Int(pk), Int(pk % 7), Str(fmt.Sprint("a", pk%3)), Str("v"), Float(0)})
		}
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
	}
	for r := int64(0); r < 2; r++ {
		insert(r*1200+1, 1200)
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	insert(2401, 10) // WAL only: the memtable walk indexes these
	blocks := 0
	for _, ts := range tbl.shards {
		if len(ts.segs) != 2 {
			t.Fatalf("shard %d holds %d runs, want 2", ts.shard.id, len(ts.segs))
		}
		for _, sg := range ts.segs {
			blocks += len(sg.blocks)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cs := db.BlockCacheStats()
	if reads := cs.Hits + cs.Misses; reads != int64(blocks) {
		t.Fatalf("Open read %d blocks (%d hits, %d misses) of %d, want each once", reads, cs.Hits, cs.Misses, blocks)
	}
	if tbl, err = db.Table("extracted"); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Stats().IndexNames; !slices.Equal(got, []string{"attribute", "patient"}) {
		t.Fatalf("indexes after reopen = %v", got)
	}
	checkIndexConsistent(t, tbl)
}

// TestZoneMapPruning proves the acceptance criterion: a primary-key
// range query over a compacted store skips the segment blocks its
// bounds miss, and the skips surface in QueryStats.BlocksPruned.
func TestZoneMapPruning(t *testing.T) {
	path := filepath.Join(t.TempDir(), "extracted.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	for i := 1; i <= 4000; i++ {
		rows = append(rows, Row{Int(int64(i)), Int(int64(i % 10)), Str("a"), Str("v"), Float(0)})
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	got, st, err := tbl.Query(Query{Preds: []Pred{Ge("id", Int(2000)), Lt("id", Int(2100))}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("range query returned %d rows, want 100", len(got))
	}
	if !st.FullScan || st.Segments == 0 {
		t.Fatalf("expected segment-backed scan, stats %+v", st)
	}
	if st.BlocksPruned == 0 {
		t.Fatalf("zone maps pruned nothing: %+v", st)
	}
	if st.RowsExamined > 2*segmentBlockRows {
		t.Errorf("scan examined %d rows despite pruning", st.RowsExamined)
	}
}

// --- snapshot isolation ---

// pinnedTable is every shard's pinned view of one table — the view
// Query's scan path and compaction's capture hold for one shard — kept
// by tests across writes and compactions.
type pinnedTable []shardSnap

// pinTable pins every shard's runs and captures its memtable, each
// under that shard's read lock.
func pinTable(tbl *Table) pinnedTable {
	p := make(pinnedTable, len(tbl.shards))
	for i, ts := range tbl.shards {
		ts.mu.RLock()
		p[i] = ts.captureLocked()
		ts.mu.RUnlock()
	}
	return p
}

// scan calls fn for every pinned row, shard by shard and each shard's
// rows in ascending key order, until fn returns false. It streams: a
// one-shard table's rows reach fn in primary-key order as they are
// read.
func (p pinnedTable) scan(fn func(Row) bool) error {
	stopped := false
	for i := range p {
		err := p[i].iterate("", "", nil, func(_ string, r Row) bool {
			stopped = !fn(r)
			return !stopped
		})
		if err != nil || stopped {
			return err
		}
	}
	return nil
}

// release unpins every shard's runs.
func (p pinnedTable) release() {
	for i := range p {
		p[i].release()
	}
}

// TestSnapshotIsolation pins the MVCC contract under the race detector:
// a view pinned before concurrent InsertBatch + Compact keeps serving
// exactly the rows that were live at capture, and pinned segment files
// survive until release even after a newer compaction obsoletes them.
func TestSnapshotIsolation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	db, err := OpenSharded(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillAttrs(t, tbl, 30)
	// First compaction so the snapshot pins real segment files.
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	want := collectRows(tbl)
	// scanSnap reads the pinned view in primary-key order.
	snap := pinTable(tbl)
	scanSnap := func() ([]Row, error) {
		var got []Row
		err := snap.scan(func(r Row) bool { got = append(got, r); return true })
		slices.SortFunc(got, func(a, b Row) int { return cmpValues(a[0], b[0]) })
		return got, err
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	applied := make(chan struct{}) // closed once 20 batches are in
	wg.Add(2)
	go func() { // writer: batches of new rows
		defer wg.Done()
		id := int64(100000)
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			batch := make([]Row, 0, 16)
			for j := 0; j < 16; j++ {
				batch = append(batch, Row{Int(id), Int(999), Str("new"), Str("x"), Float(0)})
				id++
			}
			if err := tbl.InsertBatch(batch); err != nil {
				t.Error(err)
				return
			}
			if i == 20 {
				close(applied)
			}
		}
	}()
	go func() { // compactor: obsoletes the pinned segments repeatedly
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := db.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Reader: the snapshot view must not move while writers run.
	for i := 0; i < 20; i++ {
		got, err := scanSnap()
		if err != nil {
			t.Fatalf("snapshot scan %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("snapshot scan %d saw %d rows, want %d", i, len(got), len(want))
		}
		for j := range got {
			if !slices.Equal(got[j], want[j]) {
				t.Fatalf("snapshot scan %d row %d drifted", i, j)
			}
		}
	}
	// The reader can finish before the writer has run at all; stop the
	// writer only once 20 of its batches are applied.
	select {
	case <-applied:
	case <-time.After(30 * time.Second):
		t.Fatal("writer did not apply 20 batches within 30s")
	}
	// The snapshot still predates every batch.
	got, err := scanSnap()
	if err != nil || len(got) != len(want) {
		t.Fatalf("snapshot after 20 batches: %d rows (%v), want %d", len(got), err, len(want))
	}
	for j := range got {
		if !slices.Equal(got[j], want[j]) {
			t.Fatalf("snapshot after 20 batches: row %d drifted", j)
		}
	}
	close(stop)
	wg.Wait()
	snap.release()

	// The live view did move: the new rows exist.
	if n := tbl.Len(); n < len(want)+20*16 {
		t.Fatalf("Len = %d, want at least %d after 20 batches", n, len(want)+20*16)
	}
	if _, err := tbl.Get(Int(100000)); err != nil {
		t.Fatalf("ingested row missing: %v", err)
	}
	checkIndexConsistent(t, tbl)
}

// TestSnapshotPinsObsoleteSegments verifies the refcount protocol
// directly: a compaction that supersedes a pinned segment must leave
// its file on disk until the last snapshot releases it.
func TestSnapshotPinsObsoleteSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "extracted.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillAttrs(t, tbl, 10)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	gen1 := filepath.Join(segsDirFor(path), segFileName(1, 0))
	if _, err := os.Stat(gen1); err != nil {
		t.Fatalf("gen-1 segment missing: %v", err)
	}
	snap := pinTable(tbl)
	want := tbl.Len()
	if err := tbl.Insert(Row{Int(8000), Int(1), Str("a"), Str("v"), Float(0)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	// Superseded but pinned: still on disk, still readable via snap.
	if _, err := os.Stat(gen1); err != nil {
		t.Fatalf("pinned gen-1 segment removed early: %v", err)
	}
	got := 0
	if err := snap.scan(func(Row) bool { got++; return true }); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("pinned snapshot saw %d rows, want %d", got, want)
	}
	snap.release()
	if _, err := os.Stat(gen1); !os.IsNotExist(err) {
		t.Fatalf("released obsolete segment not removed: %v", err)
	}
}

// --- crash matrix: manifest truncation ---

// TestCrashMatrixManifestTruncation truncates the segment MANIFEST at
// every byte offset. The invariant: open always succeeds; an intact
// manifest serves the full row set; any torn prefix falls back to
// WAL-only recovery (exactly the post-compaction writes), reports the
// loss, and the store accepts new writes that survive a further
// reopen.
func TestCrashMatrixManifestTruncation(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.db")
	db, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillAttrs(t, tbl, 8) // 40 pre-compaction rows → the segment
	if err := tbl.CreateIndex("patient"); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	post := []Row{ // post-compaction rows → the truncated WAL
		{Int(5001), Int(90), Str("pulse"), Str("x"), Float(1)},
		{Int(5002), Int(91), Str("pulse"), Str("x"), Float(2)},
	}
	if err := tbl.InsertBatch(post); err != nil {
		t.Fatal(err)
	}
	full := tbl.Len()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(segsDirFor(base), manifestName))
	if err != nil {
		t.Fatal(err)
	}
	walBytes, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	segName := segFileName(1, 0)
	segBytes, err := os.ReadFile(filepath.Join(segsDirFor(base), segName))
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(manifest); cut++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "extracted.db")
		if err := os.WriteFile(path, walBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(segsDirFor(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(segsDirFor(path), segName), segBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(segsDirFor(path), manifestName), manifest[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		db, err := Open(path)
		if err != nil {
			t.Fatalf("cut %d: open failed: %v", cut, err)
		}
		torn := cut < len(manifest)
		if db.Health().RecoveredWithLoss != torn {
			t.Fatalf("cut %d: RecoveredWithLoss = %v, want %v", cut, db.Health().RecoveredWithLoss, torn)
		}
		tbl, err := db.Table("extracted")
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wantRows := full
		if torn {
			wantRows = len(post) // WAL-only view
		}
		if got := tbl.Len(); got != wantRows {
			t.Fatalf("cut %d: Len = %d, want %d", cut, got, wantRows)
		}
		checkIndexConsistent(t, tbl)
		// Recovery must leave a writable store whose writes survive.
		if err := tbl.Insert(Row{Int(7777), Int(1), Str("a"), Str("v"), Float(0)}); err != nil {
			t.Fatalf("cut %d: post-recovery insert: %v", cut, err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		db, err = Open(path)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		tbl, _ = db.Table("extracted")
		if _, err := tbl.Get(Int(7777)); err != nil {
			t.Fatalf("cut %d: post-recovery insert lost: %v", cut, err)
		}
		db.Close()
	}
}

// TestTornSegmentFallsBackToWAL covers the companion loss path: the
// manifest is intact but a listed segment file is corrupt, so the whole
// segment set is voided and the WAL alone serves.
func TestTornSegmentFallsBackToWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "extracted.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillAttrs(t, tbl, 5)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(Row{Int(6001), Int(1), Str("a"), Str("v"), Float(0)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(segsDirFor(path), segFileName(1, 0))
	raw, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff // break the tail magic
	if err := os.WriteFile(segPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if !db.Health().RecoveredWithLoss {
		t.Fatal("corrupt segment did not report loss")
	}
	tbl, err = db.Table("extracted")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Len(); got != 1 {
		t.Fatalf("WAL-only view has %d rows, want 1", got)
	}
	if _, err := tbl.Get(Int(6001)); err != nil {
		t.Fatalf("post-compaction row missing from WAL fallback: %v", err)
	}
}

// --- fd hygiene on segment error paths ---

// TestSegmentErrorsLeakNoFDs extends the fd-leak pin to the segment
// paths: a corrupt-segment fallback open, a torn-manifest open, and a
// failed compaction swap must all leave the descriptor count where it
// was.
func TestSegmentErrorsLeakNoFDs(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("relies on /proc/self/fd")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "extracted.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tblA, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillAttrs(t, tblA, 5)
	if _, err := db.CreateTable(Schema{
		Name:    "second",
		Columns: []Column{{Name: "id", Type: TInt}, {Name: "v", Type: TString}},
		Primary: 0,
	}); err != nil {
		t.Fatal(err)
	}
	tblB, _ := db.Table("second")
	if err := tblB.Insert(Row{Int(1), Str("x")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the second manifest-listed segment: open falls back to
	// WAL-only recovery and must close the first segment it had opened.
	segs := segFilesOf(t, path)
	var segNames []string
	for _, n := range segs {
		if strings.HasSuffix(n, ".seg") {
			segNames = append(segNames, n)
		}
	}
	if len(segNames) != 2 {
		t.Fatalf("expected 2 segments, got %v", segs)
	}
	victim := filepath.Join(segsDirFor(path), segNames[1])
	good, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xff
	if err := os.WriteFile(victim, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	before := openFDs(t)
	for i := 0; i < 5; i++ {
		db, err := Open(path)
		if err != nil {
			t.Fatalf("fallback open failed: %v", err)
		}
		if !db.Health().RecoveredWithLoss {
			t.Fatal("corrupt segment not reported")
		}
		db.Close()
	}
	if after := openFDs(t); after > before {
		t.Errorf("corrupt-segment fallback leaked fds: %d -> %d", before, after)
	}
	if err := os.WriteFile(victim, good, 0o644); err != nil {
		t.Fatal(err)
	}

	// Torn manifest: same contract.
	manPath := filepath.Join(segsDirFor(path), manifestName)
	man, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, man[:len(man)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	before = openFDs(t)
	for i := 0; i < 5; i++ {
		db, err := Open(path)
		if err != nil {
			t.Fatalf("torn-manifest open failed: %v", err)
		}
		db.Close()
	}
	if after := openFDs(t); after > before {
		t.Errorf("torn-manifest fallback leaked fds: %d -> %d", before, after)
	}
	if err := os.WriteFile(manPath, man, 0o644); err != nil {
		t.Fatal(err)
	}

	// Failed compaction swap: plant a directory where the next
	// generation's first segment must go. Compact fails before its
	// commit point, the store keeps serving, and nothing leaks.
	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tblA, err = db.Table("extracted")
	if err != nil {
		t.Fatal(err)
	}
	wantLen := tblA.Len()
	blocker := filepath.Join(segsDirFor(path), segFileName(2, 0))
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	before = openFDs(t)
	for i := 0; i < 5; i++ {
		if err := db.Compact(); err == nil {
			t.Fatal("compaction into a blocked segment path succeeded")
		}
	}
	if after := openFDs(t); after > before {
		t.Errorf("failed compaction swap leaked fds: %d -> %d", before, after)
	}
	if got := tblA.Len(); got != wantLen {
		t.Fatalf("failed compaction changed the table: %d -> %d", wantLen, got)
	}
	if err := tblA.Insert(Row{Int(8888), Int(1), Str("a"), Str("v"), Float(0)}); err != nil {
		t.Fatalf("store unusable after failed compaction: %v", err)
	}
	// Unblock: the next compaction succeeds.
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatalf("compaction after unblocking failed: %v", err)
	}

	// Segment finish failure: the writer dies between its last data
	// block and the footer — the window where the partial file is
	// largest. The file and its descriptor must both go.
	injected := errors.New("injected finish failure")
	testHookSegmentFinish = func(string) error { return injected }
	defer func() { testHookSegmentFinish = nil }()
	filesBefore := segFilesOf(t, path)
	before = openFDs(t)
	for i := 0; i < 5; i++ {
		if err := db.Compact(); !errors.Is(err, injected) {
			t.Fatalf("compaction error = %v, want injected finish failure", err)
		}
	}
	if after := openFDs(t); after > before {
		t.Errorf("finish-failure path leaked fds: %d -> %d", before, after)
	}
	if filesAfter := segFilesOf(t, path); !reflect.DeepEqual(filesAfter, filesBefore) {
		t.Errorf("finish failure orphaned segment files: %v -> %v", filesBefore, filesAfter)
	}
	if got := tblA.Len(); got != wantLen+1 {
		t.Fatalf("failed finish changed the table: %d", got)
	}
	testHookSegmentFinish = nil
	if err := db.Compact(); err != nil {
		t.Fatalf("compaction after clearing finish hook failed: %v", err)
	}

	// Block cache holds decoded rows, never descriptors, and drops each
	// segment's entries with its last pin: populate it, then close —
	// nothing may remain.
	if _, err := tblA.Get(Int(8888)); err != nil {
		t.Fatal(err)
	}
	if cs := db.BlockCacheStats(); cs.Entries == 0 {
		t.Fatalf("segment read populated no cache entries: %+v", cs)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if cs := db.BlockCacheStats(); cs.Entries != 0 || cs.Bytes != 0 {
		t.Errorf("cache retained entries past close: %+v", cs)
	}
}
