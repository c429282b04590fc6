package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- bloom filter ---

// TestBloomFilterBasics pins the filter contract: no false negatives
// ever, a sane false-positive rate at the designed bits-per-key, and a
// decode that survives round-trips but degrades to nil on any
// corruption.
func TestBloomFilterBasics(t *testing.T) {
	const n = 5000
	bf := newBloomFilter(n)
	if bf == nil {
		t.Fatal("newBloomFilter returned nil for a non-empty set")
	}
	for i := 0; i < n; i++ {
		bf.add(encodeKey(Int(int64(i))))
	}
	for i := 0; i < n; i++ {
		if !bf.mayContain(bloomHash(encodeKey(Int(int64(i))))) {
			t.Fatalf("false negative for key %d", i)
		}
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if bf.mayContain(bloomHash(encodeKey(Int(int64(n + 1 + i))))) {
			fp++
		}
	}
	// ~1% designed; 5% is the alarm threshold for a broken hash.
	if rate := float64(fp) / probes; rate > 0.05 {
		t.Fatalf("false-positive rate %.3f, want < 0.05", rate)
	}

	enc := bf.encode()
	dec := decodeBloom(enc)
	if dec == nil || dec.k != bf.k || dec.nbits != bf.nbits {
		t.Fatalf("decode(encode) mismatch: %+v vs %+v", dec, bf)
	}
	// Any single-byte flip breaks the region CRC: decode must return
	// nil (degrade), never panic or accept.
	for off := range enc {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0xff
		if decodeBloom(bad) != nil {
			t.Fatalf("decode accepted a corrupt region (flip at %d)", off)
		}
	}
	for cut := 0; cut < len(enc); cut++ {
		if decodeBloom(enc[:cut]) != nil {
			t.Fatalf("decode accepted a truncated region (cut at %d)", cut)
		}
	}
	if newBloomFilter(0) != nil {
		t.Fatal("a filter sized for no keys should be nil")
	}
}

// --- extended footer ---

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

// TestSegmentFilterPersisted pins the extended footer: a new segment
// carries a loadable filter, present keys always pass it, and a probe
// for an absent key inside the zone map is rejected without any block
// read.
func TestSegmentFilterPersisted(t *testing.T) {
	path := writeAttrSegment(t, t.TempDir(), 600)
	sg, err := openSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sg.unref()
	if sg.filter == nil {
		t.Fatal("new segment has no bloom filter")
	}
	var rs readStats
	for i := 1; i <= 600; i++ {
		row, ok, err := sg.get(encodeKey(Int(int64(i))), &rs)
		if err != nil || !ok || row[0].I != int64(i) {
			t.Fatalf("get(%d): ok=%v err=%v", i, ok, err)
		}
	}
	if rs.bloomSkips != 0 {
		t.Fatalf("present keys counted %d bloom skips", rs.bloomSkips)
	}
	// Absent keys inside the zone map: a sparse segment (even pks only)
	// makes every odd pk an in-zone miss the zone map cannot reject.
	// Nearly all must be filter-rejected; the rest are false positives.
	sparse := filepath.Join(t.TempDir(), "sparse.seg")
	w, err := newSegmentWriter(sparse, attrSchema(), 600)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 600; i++ {
		if err := w.add(Row{Int(int64(2 * i)), Int(0), Str("pulse"), Str("v"), Float(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.finish(); err != nil {
		t.Fatal(err)
	}
	sg2, err := openSegment(sparse)
	if err != nil {
		t.Fatal(err)
	}
	defer sg2.unref()
	rs = readStats{}
	for i := 1; i <= 600; i++ {
		pk := int64(2*i + 1) // in [3,1201): inside the zone map, never stored
		if pk > 1199 {
			break
		}
		if _, ok, err := sg2.get(encodeKey(Int(pk)), &rs); ok || err != nil {
			t.Fatalf("get(%d): ok=%v err=%v, want miss", pk, ok, err)
		}
	}
	if rs.bloomSkips < 500 {
		t.Fatalf("in-zone misses produced only %d bloom skips", rs.bloomSkips)
	}
}

// referenceBloomRegion builds the filter region the way the writer did
// when it buffered every key's hashes and sized the bit array once the
// last key had arrived.
func referenceBloomRegion(keys []string) []byte {
	var hashes []uint64
	for _, k := range keys {
		h1, h2 := bloomHash(k)
		hashes = append(hashes, h1, h2)
	}
	nbits := uint64(len(keys)) * bloomBitsPerKey
	if nbits < 64 {
		nbits = 64
	}
	nbits = (nbits + 7) &^ 7
	bf := &bloomFilter{k: bloomHashes, nbits: nbits, bits: make([]byte, nbits/8)}
	for i := 0; i < len(hashes); i += 2 {
		for j := uint64(0); j < bloomHashes; j++ {
			pos := (hashes[i] + j*hashes[i+1]) % nbits
			bf.bits[pos>>3] |= 1 << (pos & 7)
		}
	}
	return bf.encode()
}

// TestSegmentBloomMatchesReference pins the segment format across the
// up-front sizing: a writer told its row count writes the same filter
// region, byte for byte, as one that buffered the keys' hashes and sized
// the filter at the end.
func TestSegmentBloomMatchesReference(t *testing.T) {
	for _, n := range []int{1, 6, 7, 255, 256, 600, 5000} {
		path := writeAttrSegment(t, t.TempDir(), n)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for i := 1; i <= n; i++ {
			keys = append(keys, encodeKey(Int(int64(i))))
		}
		got := raw[segFilterOff(t, raw) : len(raw)-segTail2Len]
		if want := referenceBloomRegion(keys); string(got) != string(want) {
			t.Errorf("n=%d: filter region differs from the reference (%d vs %d bytes)", n, len(got), len(want))
		}
	}
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

// TestBloomSkipsOnRunStack pins the end-to-end effect the filters
// exist for: on a stack of minor-compaction runs with disjoint keys, a
// point get of a key in the oldest run is filter-rejected by every
// newer run instead of paying a block read per run.
func TestBloomSkipsOnRunStack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stack.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	// 4 runs of interleaved sparse keys: run r holds pks r, r+8, r+16 …
	// so every run's zone map covers the whole key range and zone maps
	// alone cannot reject anything.
	const runs, perRun = 4, 400
	for r := 0; r < runs; r++ {
		var rows []Row
		for i := 0; i < perRun; i++ {
			pk := int64(i*2*runs + 2*r) // even pks only; odds never exist
			rows = append(rows, Row{Int(pk), Int(pk % 5), Str("pulse"), Str("v"), Float(float64(pk))})
		}
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	ts := tbl.shards[0]
	if len(ts.segs) != runs {
		t.Fatalf("expected %d runs, got %d", runs, len(ts.segs))
	}
	// A key in the oldest run (r=0) is inside every newer run's zone
	// map; the newer runs' filters must reject it without IO.
	var rs readStats
	row, ok, err := ts.segGet(encodeKey(Int(16)), &rs) // run 0 holds 16 (i=2, r=0)
	if err != nil || !ok || row[0].I != 16 {
		t.Fatalf("segGet(16): ok=%v err=%v", ok, err)
	}
	if rs.bloomSkips == 0 {
		t.Fatalf("probing through the run stack produced no bloom skips (stats %+v)", rs)
	}
	// An absent odd key must miss with (almost always) zero block
	// reads; across many probes the filter must reject nearly all.
	rs = readStats{}
	for pk := int64(1); pk < 2*runs*perRun; pk += 2 {
		if _, ok, err := ts.segGet(encodeKey(Int(pk)), &rs); ok || err != nil {
			t.Fatalf("segGet(%d): ok=%v err=%v, want miss", pk, ok, err)
		}
	}
	probes := int(runs * perRun) // one potential probe per run per key
	if rs.bloomSkips < probes/2 {
		t.Fatalf("absent-key probes: only %d bloom skips (stats %+v)", rs.bloomSkips, rs)
	}
}

// TestSegmentLegacyFooterReadable pins backward compatibility: a
// format-1 segment (20-byte tail, no filter region) — what every
// pre-bloom database holds on disk — opens and reads identically,
// just without a filter.
func TestSegmentLegacyFooterReadable(t *testing.T) {
	dir := t.TempDir()
	path := writeAttrSegment(t, dir, 600)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, "legacy.seg")
	if err := os.WriteFile(legacy, legacySegmentBytes(t, raw), 0o644); err != nil {
		t.Fatal(err)
	}
	sg, err := openSegment(legacy)
	if err != nil {
		t.Fatalf("legacy footer rejected: %v", err)
	}
	defer sg.unref()
	if sg.filter != nil {
		t.Fatal("legacy segment grew a filter from nowhere")
	}
	if sg.nRows != 600 {
		t.Fatalf("nRows = %d, want 600", sg.nRows)
	}
	for _, pk := range []int64{1, 256, 600} {
		if row, ok, err := sg.get(encodeKey(Int(pk)), nil); err != nil || !ok || row[0].I != pk {
			t.Fatalf("legacy get(%d): ok=%v err=%v", pk, ok, err)
		}
	}
	if _, ok, err := sg.get(encodeKey(Int(601)), nil); ok || err != nil {
		t.Fatalf("legacy get(601): ok=%v err=%v, want miss", ok, err)
	}
	it := newSegIter(sg, "", "", nil)
	n := 0
	for it.valid() {
		n++
		it.next()
	}
	if it.err != nil || n != 600 {
		t.Fatalf("legacy iteration: n=%d err=%v", n, it.err)
	}
}

// legacySegmentBytes converts a format-2 segment image to format 1 by
// dropping the filter region and rewriting the 20-byte tail. The tail
// CRC covers exactly index+schema in both formats, so it carries over.
func legacySegmentBytes(tb testing.TB, buf []byte) []byte {
	tb.Helper()
	if string(buf[len(buf)-8:]) != segTailMagic2 {
		tb.Fatalf("writer did not produce a %s tail", segTailMagic2)
	}
	tail := buf[len(buf)-segTail2Len:]
	filterLen := int(binary.BigEndian.Uint32(tail[8:12]))
	out := append([]byte(nil), buf[:len(buf)-segTail2Len-filterLen]...)
	out = append(out, tail[0:8]...)   // indexLen | schemaLen
	out = append(out, tail[12:16]...) // crc(index+schema)
	out = append(out, segTailMagic...)
	return out
}

// TestSegmentCorruptFilterFallsBack pins the degradation contract: a
// bit flip anywhere in the filter region costs the filter, never the
// segment — the open succeeds, reads are exact, and only bloomSkips
// disappear. Corrupting the filter *length* in the tail shifts the
// metadata offset and is footer corruption (ErrCorrupt), same as
// today's torn-tail class.
func TestSegmentCorruptFilterFallsBack(t *testing.T) {
	dir := t.TempDir()
	path := writeAttrSegment(t, dir, 600)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tail := good[len(good)-segTail2Len:]
	filterLen := int(binary.BigEndian.Uint32(tail[8:12]))
	if filterLen == 0 {
		t.Fatal("no filter region to corrupt")
	}
	filterOff := len(good) - segTail2Len - filterLen
	p := filepath.Join(dir, "corrupt.seg")
	for off := filterOff; off < filterOff+filterLen; off += 37 { // sample offsets
		bad := append([]byte(nil), good...)
		bad[off] ^= 0xff
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		sg, err := openSegment(p)
		if err != nil {
			t.Fatalf("flip at %d: corrupt filter failed the open: %v", off, err)
		}
		if sg.filter != nil {
			t.Fatalf("flip at %d: corrupt filter decoded non-nil", off)
		}
		var rs readStats
		if row, ok, gerr := sg.get(encodeKey(Int(300)), &rs); gerr != nil || !ok || row[0].I != 300 {
			t.Fatalf("flip at %d: get(300): ok=%v err=%v", off, ok, gerr)
		}
		if rs.bloomSkips != 0 {
			t.Fatalf("flip at %d: filter-absent read counted bloom skips", off)
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
// swapping runs underneath them. Writers insert fresh keys and publish
// each one once its insert has returned. Readers must find every
// published key, with its exact content, while runs move under them:
// the cache must never lose a row a swap relocated, nor serve a
// different row in its place, and an indexed query must return at
// least every row published before it began. The test runs until the
// compactor has swapped at least three runs, then checks every
// published key and that closing the engine leaves the cache empty —
// every segment's entries released with its last pin.
func TestCacheInvariantUnderCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "race.db")
	db, err := OpenShardedWithPolicy(path, 1, CompactionPolicy{MemRows: 50, WALBytes: 1 << 20, Fanout: 3})
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
	// Writer w inserts keys w, w+writers, w+2*writers, …; published[w]
	// counts the ones whose insert has returned.
	var published [writers]atomic.Int64
	pkOf := func(w int, k int64) int64 { return int64(w) + k*writers }
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
		go func(w int) {
			defer wg.Done()
			for k := int64(0); ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := tbl.Insert(rowFor(pkOf(w, k))); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				published[w].Store(k + 1)
			}
		}(w)
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
				floor := 0
				for w := 0; w < writers; w++ {
					n := published[w].Load()
					floor += int(n)
					if n == 0 {
						continue
					}
					for k := max(0, n-16); k < n; k++ {
						if err := check(pkOf(w, k)); err != nil {
							t.Error(err)
							return
						}
					}
					if err := check(pkOf(w, pass%n)); err != nil {
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
	total := 0
	for w := 0; w < writers; w++ {
		n := published[w].Load()
		total += int(n)
		for k := int64(0); k < n; k++ {
			if err := check(pkOf(w, k)); err != nil {
				t.Fatal(err)
			}
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
// against per-key liveGet over keys spread across two runs and the
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
	// Key i lives in layer i%3: the first run, the second run, or the
	// memtable. The patient column records the layer.
	for layer := 0; layer < 3; layer++ {
		var rows []Row
		for i := layer; i < 500; i += 3 {
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
	pl := &postingList{}
	for i := 0; i < 500; i++ {
		pk := encodeKey(Int(int64(i)))
		pl.keys = append(pl.keys, pk)
		if v, ok := ts.primary.Get(pk); ok {
			pl.mem = append(pl.mem, postingEntry{pk: pk, row: v.(Row)})
		}
	}
	if len(pl.mem) != 166 {
		t.Fatalf("side list holds %d memtable rows, want 166", len(pl.mem))
	}
	got, err := ts.resolveAll(pl, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, pk := range pl.keys {
		want, ok, err := ts.liveGet(pk)
		if err != nil || !ok {
			t.Fatalf("liveGet(%d): ok=%v err=%v", i, ok, err)
		}
		if !slices.Equal(got[i], want) {
			t.Fatalf("key %d: batched %v != single %v", i, got[i], want)
		}
		if got[i][1].I != int64(i%3) {
			t.Fatalf("key %d resolved from layer %d, want %d", i, got[i][1].I, i%3)
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
