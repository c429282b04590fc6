package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- segment footer formats ---

// writeAttrSegment writes a fresh segment of n attribute rows with pks
// 1..n and returns its path.
func writeAttrSegment(t *testing.T, dir string, n int) string {
	t.Helper()
	path := filepath.Join(dir, "t.seg")
	w, err := newSegmentWriter(path, attrSchema(), n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := w.add(Row{Int(int64(i)), Int(int64(i % 7)), Str("pulse"), Str("v"), Float(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.finish(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSegmentWriterCountMismatch: a run sized for one row count that
// receives another fails at finish and leaves no file behind, so the
// compaction writing it aborts with the shard untouched.
func TestSegmentWriterCountMismatch(t *testing.T) {
	for _, tc := range []struct{ sized, added int }{{10, 9}, {10, 11}, {0, 1}} {
		path := filepath.Join(t.TempDir(), "t.seg")
		_, err := writeTableRun(path, attrSchema(), tc.sized, func(add func(Row) error) error {
			for i := 1; i <= tc.added; i++ {
				if err := add(Row{Int(int64(i)), Int(0), Str("pulse"), Str("v"), Float(0)}); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			t.Errorf("sized %d, added %d: writeTableRun succeeded", tc.sized, tc.added)
		}
		if _, serr := os.Stat(path); !os.IsNotExist(serr) {
			t.Errorf("sized %d, added %d: segment file left behind (stat: %v)", tc.sized, tc.added, serr)
		}
	}
}

// format2SegmentBytes converts a format-1 segment image — what the
// writer produces — into the format-2 image earlier versions wrote: a
// filter region between the schema and a 24-byte tail carrying its
// length. The region's bytes follow the retired bloom encoding's shape
// ("BLM1", probe count, bit count, bits, CRC); the reader never looks
// at them. The tail CRC covers exactly index+schema in both formats, so
// it carries over.
func format2SegmentBytes(tb testing.TB, f1 []byte) []byte {
	tb.Helper()
	if string(f1[len(f1)-8:]) != segTailMagic {
		tb.Fatalf("writer did not produce a %s tail", segTailMagic)
	}
	tail := f1[len(f1)-segTailLen:]
	filter := append([]byte("BLM1\x07\x80\x04"), make([]byte, 64)...)
	for i := range filter[7:] {
		filter[7+i] = byte(i * 37)
	}
	filter = binary.BigEndian.AppendUint32(filter, crc32.ChecksumIEEE(filter))
	out := append([]byte(nil), f1[:len(f1)-segTailLen]...)
	out = append(out, filter...)
	out = append(out, tail[0:8]...) // indexLen | schemaLen
	out = binary.BigEndian.AppendUint32(out, uint32(len(filter)))
	out = append(out, tail[8:12]...) // crc(index+schema)
	return append(out, segTailMagic2...)
}

// readAllSegment reads every row of sg in order through the scan path.
func readAllSegment(t *testing.T, sg *segment) []Row {
	t.Helper()
	var rows []Row
	ss := shardSnap{segs: []*segment{sg}}
	if err := ss.iterate("", "", nil, func(_ string, row Row) bool {
		rows = append(rows, row)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestSegmentLegacyFooterReadable pins compatibility in both
// directions: the writer produces the filter-less format-1 tail, and a
// format-2 segment — what earlier versions wrote, a bloom-filter region
// before a 24-byte tail — opens and reads identically, its filter
// region skipped unread.
func TestSegmentLegacyFooterReadable(t *testing.T) {
	dir := t.TempDir()
	path := writeAttrSegment(t, dir, 600)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[len(raw)-8:]) != segTailMagic {
		t.Fatalf("writer tail magic %q, want %q", raw[len(raw)-8:], segTailMagic)
	}
	current, err := openSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer current.unref()
	legacy := filepath.Join(dir, "legacy.seg")
	if err := os.WriteFile(legacy, format2SegmentBytes(t, raw), 0o644); err != nil {
		t.Fatal(err)
	}
	sg, err := openSegment(legacy)
	if err != nil {
		t.Fatalf("format-2 footer rejected: %v", err)
	}
	defer sg.unref()
	if sg.nRows != 600 || !slices.Equal(sg.blocks, current.blocks) {
		t.Fatalf("format-2 run: nRows %d, blocks differ %v; want the format-1 run's 600 rows and blocks", sg.nRows, !slices.Equal(sg.blocks, current.blocks))
	}
	for _, pk := range []int64{1, 256, 600} {
		if row, ok, err := sg.get(encodeKey(Int(pk)), nil); err != nil || !ok || row[0].I != pk {
			t.Fatalf("legacy get(%d): ok=%v err=%v", pk, ok, err)
		}
	}
	if _, ok, err := sg.get(encodeKey(Int(601)), nil); ok || err != nil {
		t.Fatalf("legacy get(601): ok=%v err=%v, want miss", ok, err)
	}
	got, want := readAllSegment(t, sg), readAllSegment(t, current)
	if len(got) != 600 || len(got) != len(want) {
		t.Fatalf("legacy iteration: %d rows, format-1 run %d", len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("row %d: format-2 %v, format-1 %v", i, got[i], want[i])
		}
	}
}

// TestSegmentCorruptFilterFallsBack: a bit flip anywhere in a format-2
// run's filter region changes nothing — the region is never read, so
// the open succeeds and reads are exact. Corrupting the filter *length*
// in the tail shifts the metadata offset and is footer corruption
// (ErrCorrupt), same as the torn-tail class.
func TestSegmentCorruptFilterFallsBack(t *testing.T) {
	dir := t.TempDir()
	f1, err := os.ReadFile(writeAttrSegment(t, dir, 600))
	if err != nil {
		t.Fatal(err)
	}
	good := format2SegmentBytes(t, f1)
	tail := good[len(good)-segTail2Len:]
	filterLen := int(binary.BigEndian.Uint32(tail[8:12]))
	filterOff := len(good) - segTail2Len - filterLen
	p := filepath.Join(dir, "corrupt.seg")
	for off := filterOff; off < filterOff+filterLen; off += 7 { // sample offsets
		bad := append([]byte(nil), good...)
		bad[off] ^= 0xff
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		sg, err := openSegment(p)
		if err != nil {
			t.Fatalf("flip at %d: corrupt filter failed the open: %v", off, err)
		}
		if row, ok, gerr := sg.get(encodeKey(Int(300)), nil); gerr != nil || !ok || row[0].I != 300 {
			t.Fatalf("flip at %d: get(300): ok=%v err=%v", off, ok, gerr)
		}
		sg.unref()
	}
	// filterLen itself is covered by no CRC — but an absurd value moves
	// metaOff off the index, which the meta CRC catches: ErrCorrupt.
	bad := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(bad[len(bad)-segTail2Len+8:], uint32(filterLen+8))
	if err := os.WriteFile(p, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if sg, err := openSegment(p); err == nil {
		sg.unref()
		t.Fatal("shifted filterLen accepted")
	}
}

// --- block cache ---

// TestBlockCacheLRU unit-tests the shared cache: byte-capacity
// eviction from the cold end, most-recently-used retention, oversize
// rejection, shrink-on-setCapacity and per-segment drop.
func TestBlockCacheLRU(t *testing.T) {
	c := newBlockCache(100)
	rows := []Row{{Int(1)}}
	keys := []string{encodeKey(Int(1))}
	put := func(seg uint64, bi int, size int64) { c.put(blockKey{seg, bi}, rows, keys, size) }
	has := func(seg uint64, bi int) bool { _, _, ok := c.get(blockKey{seg, bi}); return ok }

	put(1, 0, 40)
	put(1, 1, 40)
	if !has(1, 0) || !has(1, 1) {
		t.Fatal("entries missing after put")
	}
	// Touch (1,0) so (1,1) is the cold end; a 40-byte insert must evict
	// exactly (1,1).
	has(1, 0)
	put(1, 2, 40)
	if !has(1, 0) || !has(1, 2) || has(1, 1) {
		t.Fatalf("LRU eviction picked the wrong entry")
	}
	if st := c.stats(); st.Evictions != 1 || st.Bytes != 80 || st.Entries != 2 {
		t.Fatalf("stats after eviction: %+v", st)
	}
	// Oversize entries are not cached at all.
	put(2, 0, 1000)
	if has(2, 0) {
		t.Fatal("oversize entry was cached")
	}
	// Shrink evicts immediately.
	c.setCapacity(40)
	if st := c.stats(); st.Bytes > 40 || st.Entries != 1 {
		t.Fatalf("stats after shrink: %+v", st)
	}
	// Capacity 0 disables storage.
	c.setCapacity(0)
	put(3, 0, 10)
	if st := c.stats(); st.Entries != 0 {
		t.Fatalf("cap 0 still stored entries: %+v", st)
	}
	// dropSegment removes exactly one segment's entries.
	c.setCapacity(1000)
	put(4, 0, 10)
	put(4, 1, 10)
	put(5, 0, 10)
	c.dropSegment(4)
	if c.segEntries(4) != 0 || c.segEntries(5) != 1 {
		t.Fatalf("dropSegment: seg4=%d seg5=%d", c.segEntries(4), c.segEntries(5))
	}
	var nilCache *blockCache
	if st := nilCache.stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
}

// TestQueryCacheCounters pins the end-to-end cache effect the
// QueryStats surface: the first indexed query over segment-resident
// rows pays misses, a repeat serves the same blocks as hits, and
// disabling the cache goes back to misses.
func TestQueryCacheCounters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("attribute"); err != nil {
		t.Fatal(err)
	}
	var rows []Row
	for i := 0; i < 2000; i++ {
		attr := "pulse"
		if i%2 == 1 {
			attr = "smoking"
		}
		rows = append(rows, Row{Int(int64(i)), Int(int64(i % 90)), Str(attr), Str("v"), Float(float64(i))})
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}

	q := Query{Preds: []Pred{Eq("attribute", Str("pulse"))}}
	_, st1, err := tbl.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if st1.CacheMisses == 0 || st1.CacheHits != 0 {
		t.Fatalf("cold query: %+v, want misses only", st1)
	}
	_, st2, err := tbl.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if st2.CacheHits == 0 || st2.CacheMisses != 0 {
		t.Fatalf("warm query: %+v, want hits only", st2)
	}
	if cs := db.BlockCacheStats(); cs.Hits == 0 || cs.Entries == 0 {
		t.Fatalf("engine cache stats: %+v", cs)
	}
	// Table.Stats carries the same snapshot.
	if ts := tbl.Stats(); ts.Cache.Hits == 0 {
		t.Fatalf("table cache stats: %+v", ts.Cache)
	}
	// Disabling the cache drops the entries and stops caching; queries
	// still answer, paying misses again.
	db.SetBlockCacheCapacity(0)
	if cs := db.BlockCacheStats(); cs.Entries != 0 {
		t.Fatalf("cap 0 left entries: %+v", cs)
	}
	_, st3, err := tbl.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if st3.CacheHits != 0 || st3.CacheMisses == 0 {
		t.Fatalf("disabled-cache query: %+v", st3)
	}
}

// TestCacheDropsObsoleteSegments pins the release invariant: a major
// compaction obsoletes the old runs, and the moment their last pin
// drops, their cached blocks go with them — the cache holds no memory
// for segments nothing can read.
func TestCacheDropsObsoleteSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "drop.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		var rows []Row
		for i := 0; i < 600; i++ {
			pk := int64(r*600 + i)
			rows = append(rows, Row{Int(pk), Int(pk % 5), Str("pulse"), Str("v"), Float(0)})
		}
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	ts := tbl.shards[0]
	oldIDs := make([]uint64, 0, len(ts.segs))
	for _, sg := range ts.segs {
		oldIDs = append(oldIDs, sg.id)
	}
	// Populate the cache from every run.
	for pk := int64(0); pk < 1800; pk += 100 {
		if _, err := tbl.Get(Int(pk)); err != nil {
			t.Fatal(err)
		}
	}
	cached := 0
	for _, id := range oldIDs {
		cached += db.cache.segEntries(id)
	}
	if cached == 0 {
		t.Fatal("reads populated nothing")
	}
	if err := db.Compact(); err != nil { // major: obsoletes the old runs
		t.Fatal(err)
	}
	for _, id := range oldIDs {
		if n := db.cache.segEntries(id); n != 0 {
			t.Fatalf("obsolete segment %d still holds %d cached blocks", id, n)
		}
	}
	// The replacement run serves (and caches) the same rows.
	if _, err := tbl.Get(Int(700)); err != nil {
		t.Fatal(err)
	}
	if cs := db.BlockCacheStats(); cs.Entries == 0 {
		t.Fatalf("post-compaction reads cached nothing: %+v", cs)
	}
}

// TestCompactionDoesNotFillCache pins the merge's cache discipline: a
// major compaction reads every block of the runs it retires yet adds no
// block-cache entry.
// A pinned view holds the old runs across the merge, so blocks the
// merge cached would outlive the commit and show in the counts.
func TestCompactionDoesNotFillCache(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nofill.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		var rows []Row
		for i := 0; i < 600; i++ {
			pk := int64(r*600 + i)
			rows = append(rows, Row{Int(pk), Int(pk % 5), Str("pulse"), Str("v"), Float(0)})
		}
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for pk := int64(1); pk < 1800; pk += 300 { // what readers cached
		if _, err := tbl.Get(Int(pk)); err != nil {
			t.Fatal(err)
		}
	}
	before := db.BlockCacheStats()
	if before.Entries == 0 {
		t.Fatal("reads cached nothing")
	}
	snap := pinTable(tbl)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	after := db.BlockCacheStats()
	if after.Entries > before.Entries || after.Bytes > before.Bytes {
		t.Fatalf("major compaction filled the cache: %d entries / %d bytes before, %d / %d after",
			before.Entries, before.Bytes, after.Entries, after.Bytes)
	}
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("major compaction counted cache lookups: hits %d→%d, misses %d→%d",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}
	snap.release()
	if got := tbl.Len(); got != 1800 {
		t.Fatalf("Len = %d, want 1800", got)
	}
}

// TestCacheInvariantUnderCompaction is the race-enabled invariant test:
// concurrent readers and writers run against the auto-compactor
// swapping runs underneath them. Writers act as one logical writer, as
// core.Ingester does: each allocates the next key and inserts it under
// one lock, then publishes it. Readers must find every
// published key, with its exact content, while runs move under them:
// the cache must never lose a row a swap relocated, nor serve a
// different row in its place, and an indexed query must return at
// least every row published before it began. The test runs until the
// compactor has swapped at least three runs, then checks every
// published key and that closing the engine leaves the cache empty —
// every segment's entries released with its last pin.
func TestCacheInvariantUnderCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "race.db")
	db, err := OpenShardedWithPolicy(path, 1, CompactionPolicy{MemRows: 50, Fanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("attribute"); err != nil {
		t.Fatal(err)
	}
	const writers = 2
	rowFor := func(pk int64) Row {
		return Row{Int(pk), Int(pk % 97), Str("pulse"), Str(fmt.Sprintf("v%d", pk)), Float(float64(pk))}
	}
	// Keys 0, 1, 2, … in insert order; published counts the ones whose
	// insert has returned.
	var (
		writeMu   sync.Mutex
		next      int64
		published atomic.Int64
	)
	check := func(pk int64) error {
		row, err := tbl.Get(Int(pk))
		if err != nil {
			return fmt.Errorf("published key %d: %w", pk, err)
		}
		if !slices.Equal(row, rowFor(pk)) {
			return fmt.Errorf("published key %d reads %v", pk, row)
		}
		return nil
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				writeMu.Lock()
				err := tbl.Insert(rowFor(next))
				if err == nil {
					next++
					published.Store(next)
				}
				writeMu.Unlock()
				if err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}()
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() { // readers: the newest keys every pass, older ones in rotation
			defer wg.Done()
			for pass := int64(0); ; pass++ {
				select {
				case <-stop:
					return
				default:
				}
				n := published.Load()
				floor := int(n)
				if n > 0 {
					for k := max(0, n-16); k < n; k++ {
						if err := check(k); err != nil {
							t.Error(err)
							return
						}
					}
					if err := check(pass % n); err != nil {
						t.Error(err)
						return
					}
				}
				rows, _, err := tbl.Query(Query{Preds: []Pred{Eq("attribute", Str("pulse"))}})
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if len(rows) < floor {
					t.Errorf("indexed query returned %d rows, %d were published before it", len(rows), floor)
					return
				}
			}
		}()
	}
	// Keep the load on until background compaction has swapped runs
	// under the readers at least three times.
	deadline := time.Now().Add(30 * time.Second)
	for cst := db.CompactionStats(); cst.MinorRuns+cst.MajorRuns < 3; cst = db.CompactionStats() {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			db.Close()
			t.Fatalf("fewer than 3 background compactions within 30s: %+v", cst)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	total := int(published.Load())
	for k := int64(0); k < int64(total); k++ {
		if err := check(k); err != nil {
			t.Fatal(err)
		}
	}
	if got := tbl.Len(); got != total {
		t.Fatalf("Len = %d, want the %d published rows", got, total)
	}
	checkIndexConsistent(t, tbl)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if cs := db.BlockCacheStats(); cs.Entries != 0 || cs.Bytes != 0 {
		t.Fatalf("cache not empty after close: %+v", cs)
	}
}

// TestBatchedResolveMatchesSingle cross-checks the batched resolver
// against per-key Get over keys spread across two runs and the
// memtable, whose rows sit in the posting's side list: both must
// produce identical rows, and every posting key must resolve exactly
// once, from the layer that holds it.
func TestBatchedResolveMatchesSingle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	// Key i lives in layer i/200: the first run, the second run, or the
	// memtable. The patient column records the layer.
	layerOf := func(i int) int { return i / 200 }
	for layer := 0; layer < 3; layer++ {
		var rows []Row
		for i := layer * 200; i < min(500, (layer+1)*200); i++ {
			rows = append(rows, Row{Int(int64(i)), Int(int64(layer)), Str("pulse"), Str("v"), Float(0)})
		}
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		if layer < 2 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ts := tbl.shards[0]
	if len(ts.segs) != 2 {
		t.Fatalf("expected a two-run stack, got %d segs", len(ts.segs))
	}
	// The posting holds every third key; its side list is the memtable
	// rows of its suffix.
	pl := &postingList{}
	var ids []int
	for i := 0; i < 500; i += 3 {
		ids = append(ids, i)
		pl.keys = append(pl.keys, encodeKey(Int(int64(i))))
	}
	for _, mr := range ts.mem {
		if _, found := slices.BinarySearch(pl.keys, mr.key); found {
			pl.mem = append(pl.mem, mr.row)
		}
	}
	if len(pl.mem) != 33 {
		t.Fatalf("side list holds %d memtable rows, want 33", len(pl.mem))
	}
	got, err := ts.resolveAll(pl, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		want, err := tbl.Get(Int(int64(id)))
		if err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
		if !slices.Equal(got[i], want) {
			t.Fatalf("key %d: batched %v != single %v", id, got[i], want)
		}
		if got[i][1].I != int64(layerOf(id)) {
			t.Fatalf("key %d resolved from layer %d, want %d", id, got[i][1].I, layerOf(id))
		}
	}
	// A posting for a key no segment holds must fail loudly, not
	// silently drop.
	if _, err := ts.resolveAll(&postingList{keys: []string{encodeKey(Int(99999))}}, nil); err == nil {
		t.Fatal("missing segment row resolved without error")
	}
}

// TestFlushBuildsRunStack pins the new explicit minor-compaction API:
// each Flush appends one run per table and reads still merge exactly.
func TestFlushBuildsRunStack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flush.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		for i := 0; i < 10; i++ {
			pk := int64(r*10 + i)
			if err := tbl.Insert(Row{Int(pk), Int(pk), Str("pulse"), Str("v"), Float(0)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := len(tbl.shards[0].segs); got != r+1 {
			t.Fatalf("after flush %d: %d segs", r+1, got)
		}
	}
	if got := tbl.Len(); got != 30 {
		t.Fatalf("Len = %d, want 30", got)
	}
	n := 0
	tbl.Scan(func(Row) bool { n++; return true })
	if n != 30 {
		t.Fatalf("scan saw %d rows, want 30", n)
	}
}
