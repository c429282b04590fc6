package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// An immutable sorted segment holds one table's rows in ascending
// primary-key order, written once by compaction and then only read.
// Rows live in fixed-size blocks; a sparse block index in the footer
// carries each block's offset, length, CRC and min/max primary key
// (the zone map), so point reads binary-search the index and range
// scans skip blocks whose key zone misses the bounds entirely.
//
// File layout:
//
//	"MEDSEG1\n"                               8-byte header magic
//	block*                                    encoded rows, back to back
//	index: per block {offset, len, rows, crc, minKey, maxKey}
//	schema: opCreateTable payload (self-describing)
//	filter: bloom region (see bloom.go), self-CRC'd  [format 2 only]
//	uint32 indexLen | uint32 schemaLen
//	[uint32 filterLen]                        format 2 only
//	uint32 CRC32(index+schema) | magic        fixed tail
//
// Two tail formats coexist. "MEDSEGF1" is the original 20-byte tail
// with no filter region — every pre-bloom segment on disk. "MEDSEGF2"
// is the 24-byte tail that adds filterLen and places the bloom region
// between the schema and the tail. The loader dispatches on the magic,
// so old segments stay readable forever and a new segment is simply an
// old segment plus an optional, independently-checksummed filter: the
// tail CRC still covers exactly index+schema, and a corrupt filter
// region degrades to filter-absent reads instead of failing the open.
//
// Rows inside a block use the WAL row codec (encodeRow/decodeValues);
// keys are re-derived from the schema's primary column, so nothing is
// stored twice. The footer schema makes a segment self-describing: a
// shard whose WAL lost its create-table record to a crash can rebuild
// the table from the segment alone.
const (
	segMagic      = "MEDSEG1\n"
	segTailMagic  = "MEDSEGF1"
	segTailMagic2 = "MEDSEGF2"
	segTailLen    = 8 + 4 + 4 + 4     // lens + crc + magic
	segTail2Len   = 8 + 4 + 4 + 4 + 4 // lens + filterLen + crc + magic

	// segmentBlockRows is the target rows per block: small enough that
	// a point read decodes little, large enough that the sparse index
	// stays tiny (one entry per block).
	segmentBlockRows = 256

	// segMaxBlockLen bounds a single block (and the index/schema
	// regions) against corrupt length fields pre-allocating gigabytes.
	segMaxBlockLen = 1 << 26
)

// segBlock is one block-index entry: the zone map and location of a
// row block.
type segBlock struct {
	off    int64
	length int
	rows   int
	crc    uint32
	minKey []byte
	maxKey []byte
}

// segIDs hands out process-unique segment ids for block-cache keys; ids
// are never reused, so a replacement segment can never alias cached
// blocks of the run it superseded.
var segIDs atomic.Uint64

// segment is an open, immutable, sorted row file. Reads go through
// ReadAt and are safe for any number of concurrent readers. The
// refcount keeps the file open (and, once obsoleted by a newer
// compaction, on disk) while snapshots still iterate it.
type segment struct {
	path   string
	f      *os.File
	schema Schema
	blocks []segBlock
	nRows  int
	minKey []byte // zone map over the whole file
	maxKey []byte

	id     uint64       // process-unique cache key prefix
	filter *bloomFilter // nil: no filter persisted, or filter region corrupt
	cache  *blockCache  // shared decoded-block cache; nil disables caching

	refs     atomic.Int32 // owner (shard) + pinning snapshots
	obsolete atomic.Bool  // superseded by a newer compaction: remove on last unref
}

// ref pins the segment for a snapshot.
func (sg *segment) ref() { sg.refs.Add(1) }

// unref drops one pin; the last unref closes the file, releases the
// segment's cached blocks and, if the segment was obsoleted by a newer
// compaction, removes it from disk.
func (sg *segment) unref() {
	if sg.refs.Add(-1) != 0 {
		return
	}
	if sg.f != nil {
		sg.f.Close()
		sg.f = nil
	}
	if sg.cache != nil {
		sg.cache.dropSegment(sg.id)
	}
	if sg.obsolete.Load() {
		os.Remove(sg.path)
	}
}

// markObsolete flags the segment for removal on last unref.
func (sg *segment) markObsolete() { sg.obsolete.Store(true) }

// openSegment opens and validates a segment file. Any malformed input
// is rejected with ErrCorrupt (wrapped with the path); the descriptor
// never leaks on an error path.
func openSegment(path string) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sg, err := loadSegment(path, f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: segment %s: %w", filepath.Base(path), err)
	}
	return sg, nil
}

// loadSegment parses the footer and block index from an open file. The
// trailing 8-byte magic selects the tail format; the optional format-2
// bloom filter is decoded best-effort (it carries its own CRC), so a
// corrupt filter region costs the filter, never the segment.
func loadSegment(path string, f *os.File) (*segment, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < int64(len(segMagic))+segTailLen {
		return nil, ErrCorrupt
	}
	var head [len(segMagic)]byte
	if _, err := f.ReadAt(head[:], 0); err != nil {
		return nil, err
	}
	if string(head[:]) != segMagic {
		return nil, ErrCorrupt
	}
	var magic [8]byte
	if _, err := f.ReadAt(magic[:], size-8); err != nil {
		return nil, err
	}
	tailLen := int64(segTailLen)
	if string(magic[:]) == segTailMagic2 {
		tailLen = segTail2Len
	} else if string(magic[:]) != segTailMagic {
		return nil, ErrCorrupt
	}
	if size < int64(len(segMagic))+tailLen {
		return nil, ErrCorrupt
	}
	tail := make([]byte, tailLen)
	if _, err := f.ReadAt(tail, size-tailLen); err != nil {
		return nil, err
	}
	indexLen := int64(binary.BigEndian.Uint32(tail[0:4]))
	schemaLen := int64(binary.BigEndian.Uint32(tail[4:8]))
	var filterLen int64
	crcOff := 8
	if tailLen == segTail2Len {
		filterLen = int64(binary.BigEndian.Uint32(tail[8:12]))
		crcOff = 12
	}
	wantCRC := binary.BigEndian.Uint32(tail[crcOff : crcOff+4])
	if indexLen > segMaxBlockLen || schemaLen > segMaxBlockLen || filterLen > segMaxBlockLen {
		return nil, ErrCorrupt
	}
	metaOff := size - tailLen - filterLen - indexLen - schemaLen
	if metaOff < int64(len(segMagic)) {
		return nil, ErrCorrupt
	}
	meta := make([]byte, indexLen+schemaLen)
	if _, err := f.ReadAt(meta, metaOff); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(meta) != wantCRC {
		return nil, ErrCorrupt
	}
	schema, err := decodeSchemaPayload(meta[indexLen:])
	if err != nil {
		return nil, err
	}
	blocks, nRows, err := decodeSegIndex(meta[:indexLen], metaOff)
	if err != nil {
		return nil, err
	}
	sg := &segment{path: path, f: f, schema: schema, blocks: blocks, nRows: nRows}
	sg.id = segIDs.Add(1)
	if filterLen > 0 {
		fbuf := make([]byte, filterLen)
		if _, err := f.ReadAt(fbuf, metaOff+indexLen+schemaLen); err == nil {
			sg.filter = decodeBloom(fbuf) // nil on any deviation: degrade
		}
	}
	if len(blocks) > 0 {
		sg.minKey = blocks[0].minKey
		sg.maxKey = blocks[len(blocks)-1].maxKey
	}
	sg.refs.Store(1)
	return sg, nil
}

// decodeSegIndex parses the block-index region. Blocks must be
// contiguous from the header, non-overlapping, in ascending key order,
// and end exactly where the metadata begins — anything else is
// corruption.
func decodeSegIndex(buf []byte, metaOff int64) ([]segBlock, int, error) {
	var blocks []segBlock
	nRows := 0
	next := int64(len(segMagic))
	var prevMax []byte
	for len(buf) > 0 {
		var b segBlock
		length, k := binary.Uvarint(buf)
		if k <= 0 || length == 0 || length > segMaxBlockLen {
			return nil, 0, ErrCorrupt
		}
		buf = buf[k:]
		rows, k := binary.Uvarint(buf)
		if k <= 0 || rows == 0 || rows > length {
			return nil, 0, ErrCorrupt
		}
		buf = buf[k:]
		if len(buf) < 4 {
			return nil, 0, ErrCorrupt
		}
		b.crc = binary.BigEndian.Uint32(buf[:4])
		buf = buf[4:]
		var err error
		var minS, maxS string
		minS, buf, err = readString(buf)
		if err != nil {
			return nil, 0, err
		}
		maxS, buf, err = readString(buf)
		if err != nil {
			return nil, 0, err
		}
		b.off = next
		b.length = int(length)
		b.rows = int(rows)
		b.minKey = []byte(minS)
		b.maxKey = []byte(maxS)
		if bytes.Compare(b.minKey, b.maxKey) > 0 {
			return nil, 0, ErrCorrupt
		}
		if prevMax != nil && bytes.Compare(prevMax, b.minKey) >= 0 {
			return nil, 0, ErrCorrupt
		}
		prevMax = b.maxKey
		next += int64(length)
		if next > metaOff {
			return nil, 0, ErrCorrupt
		}
		nRows += b.rows
		blocks = append(blocks, b)
	}
	if next != metaOff {
		return nil, 0, ErrCorrupt
	}
	return blocks, nRows, nil
}

// segReadBufPool recycles readBlockDisk's raw read buffer. Safe to
// return to the pool immediately after decoding because decodeValues
// copies string payloads out of the buffer — decoded rows never alias
// it.
var segReadBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 8192); return &b }}

// readBlock returns one block's decoded rows and encoded primary keys,
// consulting the shared cache first. A hit serves the immutable decoded
// slices straight from memory; a miss pays disk + CRC + decode and
// populates the cache for every future reader of this segment.
func (sg *segment) readBlock(bi int, rs *readStats) ([]Row, [][]byte, error) {
	if sg.cache != nil {
		k := blockKey{seg: sg.id, bi: bi}
		if rows, keys, ok := sg.cache.get(k); ok {
			if rs != nil {
				rs.cacheHits++
			}
			return rows, keys, nil
		}
		if rs != nil {
			rs.cacheMisses++
		}
		rows, keys, err := sg.readBlockDisk(bi)
		if err != nil {
			return nil, nil, err
		}
		sg.cache.put(k, rows, keys, blockFootprint(sg.blocks[bi].length, len(rows)))
		return rows, keys, nil
	}
	return sg.readBlockDisk(bi)
}

// readBlockDisk fetches and decodes one block's rows, verifying the
// CRC. It returns the rows and their encoded primary keys in ascending
// order.
func (sg *segment) readBlockDisk(bi int) ([]Row, [][]byte, error) {
	b := sg.blocks[bi]
	bp := segReadBufPool.Get().(*[]byte)
	defer segReadBufPool.Put(bp)
	if cap(*bp) < b.length {
		*bp = make([]byte, b.length)
	}
	full := (*bp)[:b.length]
	if _, err := sg.f.ReadAt(full, b.off); err != nil {
		return nil, nil, err
	}
	if crc32.ChecksumIEEE(full) != b.crc {
		return nil, nil, fmt.Errorf("store: segment %s block %d: %w", filepath.Base(sg.path), bi, ErrCorrupt)
	}
	ncols := len(sg.schema.Columns)
	rows := make([]Row, 0, b.rows)
	keys := make([][]byte, 0, b.rows)
	var prev []byte
	buf := full
	for i := 0; i < b.rows; i++ {
		var row Row
		var err error
		row, buf, err = decodeValues(buf, ncols)
		if err != nil {
			return nil, nil, err
		}
		if err := sg.schema.validate(row); err != nil {
			return nil, nil, err
		}
		key := encodeKey(row[sg.schema.Primary])
		if prev != nil && bytes.Compare(prev, key) >= 0 {
			return nil, nil, ErrCorrupt // rows must be strictly ascending
		}
		prev = key
		rows = append(rows, row)
		keys = append(keys, key)
	}
	if len(buf) != 0 {
		return nil, nil, ErrCorrupt
	}
	return rows, keys, nil
}

// noteBloomSkip records a probe the bloom filter answered without IO.
func (sg *segment) noteBloomSkip(rs *readStats) {
	if rs != nil {
		rs.bloomSkips++
	}
	if sg.cache != nil {
		sg.cache.bloomSkips.Add(1)
	}
}

// get returns the row with the given primary key, using the zone maps
// and the bloom filter to reject misses without touching the file.
func (sg *segment) get(key []byte, rs *readStats) (Row, bool, error) {
	if len(sg.blocks) == 0 || bytes.Compare(key, sg.minKey) < 0 || bytes.Compare(key, sg.maxKey) > 0 {
		return nil, false, nil
	}
	if sg.filter != nil {
		if h1, h2 := bloomHash(key); !sg.filter.mayContain(h1, h2) {
			sg.noteBloomSkip(rs)
			return nil, false, nil
		}
	}
	// First block whose maxKey >= key.
	lo, hi := 0, len(sg.blocks)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(sg.blocks[mid].maxKey, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(sg.blocks) || bytes.Compare(sg.blocks[lo].minKey, key) > 0 {
		return nil, false, nil
	}
	rows, keys, err := sg.readBlock(lo, rs)
	if err != nil {
		return nil, false, err
	}
	i, found := searchKeys(keys, key)
	if !found {
		return nil, false, nil
	}
	return rows[i], true, nil
}

// getBatch resolves many primary keys against this segment in one
// index walk. entries holds the posting list (pk-ascending); missing
// holds the positions still unresolved. Each position either fills
// out[pos] or survives into the returned remainder for an older
// segment. Because both the pks and the block index are sorted, the
// walk advances a single block cursor and decodes each touched block
// exactly once — the whole point of batching.
func (sg *segment) getBatch(entries []postingEntry, missing []int, out []Row, rs *readStats) ([]int, error) {
	if len(sg.blocks) == 0 || len(missing) == 0 {
		return missing, nil
	}
	rest := missing[:0]
	bi := 0        // first candidate block (monotone: pks ascend)
	var rows []Row // currently decoded block
	var keys [][]byte
	loaded := -1
	for _, pos := range missing {
		pk := entries[pos].pk
		if cmpKeyStr(sg.minKey, pk) > 0 || cmpKeyStr(sg.maxKey, pk) < 0 {
			rest = append(rest, pos)
			continue
		}
		if sg.filter != nil {
			if h1, h2 := bloomHashString(pk); !sg.filter.mayContain(h1, h2) {
				sg.noteBloomSkip(rs)
				rest = append(rest, pos)
				continue
			}
		}
		// Advance to the first block whose maxKey >= pk.
		for bi < len(sg.blocks) && cmpKeyStr(sg.blocks[bi].maxKey, pk) < 0 {
			bi++
		}
		if bi == len(sg.blocks) || cmpKeyStr(sg.blocks[bi].minKey, pk) > 0 {
			rest = append(rest, pos)
			continue
		}
		if loaded != bi {
			var err error
			rows, keys, err = sg.readBlock(bi, rs)
			if err != nil {
				return nil, err
			}
			loaded = bi
		}
		if i, found := searchKeysStr(keys, pk); found {
			out[pos] = rows[i]
		} else {
			rest = append(rest, pos)
		}
	}
	return rest, nil
}

// searchKeys returns the position of key in sorted keys and whether it
// is present.
func searchKeys(keys [][]byte, key []byte) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(keys) && bytes.Equal(keys[lo], key)
}

// cmpKeyStr is bytes.Compare between an encoded key and a posting pk
// held as a string — a manual loop so the batch resolve path never
// converts (and so never allocates).
func cmpKeyStr(a []byte, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// searchKeysStr is searchKeys against a string pk.
func searchKeysStr(keys [][]byte, key string) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if cmpKeyStr(keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(keys) && cmpKeyStr(keys[lo], key) == 0
}

// segIter streams a segment's rows in ascending key order, bounded to
// [lo, hi) when the bounds are non-nil. Blocks whose zone map misses
// the bounds are never read; pruned counts them for QueryStats.
type segIter struct {
	seg    *segment
	hi     []byte
	bi     int // next block to read
	rows   []Row
	keys   [][]byte
	ri     int
	pruned int
	stats  *readStats // cache hit/miss accounting for loaded blocks
	err    error
}

// newSegIter positions an iterator at the first row >= lo, counting
// the blocks the zone map let it skip.
func newSegIter(sg *segment, lo, hi []byte, stats *readStats) *segIter {
	it := &segIter{seg: sg, hi: hi, stats: stats}
	// First block that can contain a key >= lo.
	start := 0
	if lo != nil {
		l, h := 0, len(sg.blocks)
		for l < h {
			mid := (l + h) / 2
			if bytes.Compare(sg.blocks[mid].maxKey, lo) < 0 {
				l = mid + 1
			} else {
				h = mid
			}
		}
		start = l
	}
	it.pruned += start
	it.bi = start
	// Blocks past hi are pruned too; account for them up front so the
	// stats reflect the whole zone-map saving even if iteration stops
	// early.
	if hi != nil {
		end := len(sg.blocks)
		for end > start && bytes.Compare(sg.blocks[end-1].minKey, hi) >= 0 {
			end--
		}
		it.pruned += len(sg.blocks) - end
	}
	it.loadBlock(lo)
	return it
}

// loadBlock reads block it.bi and positions ri at the first key >= lo
// (or 0 when lo is nil).
func (it *segIter) loadBlock(lo []byte) {
	for {
		if it.bi >= len(it.seg.blocks) {
			it.rows, it.keys = nil, nil
			return
		}
		if it.hi != nil && bytes.Compare(it.seg.blocks[it.bi].minKey, it.hi) >= 0 {
			it.rows, it.keys = nil, nil
			return
		}
		rows, keys, err := it.seg.readBlock(it.bi, it.stats)
		if err != nil {
			it.err = err
			it.rows, it.keys = nil, nil
			return
		}
		it.bi++
		ri := 0
		if lo != nil {
			ri, _ = searchKeys(keys, lo)
		}
		if ri < len(keys) {
			it.rows, it.keys, it.ri = rows, keys, ri
			return
		}
		lo = nil // the bound was past this block; the next starts fresh
	}
}

// valid reports whether the iterator currently points at a row.
func (it *segIter) valid() bool {
	return it.err == nil && it.ri < len(it.keys) &&
		(it.hi == nil || bytes.Compare(it.keys[it.ri], it.hi) < 0)
}

// key and row return the current position (valid() must hold).
func (it *segIter) key() []byte { return it.keys[it.ri] }
func (it *segIter) row() Row    { return it.rows[it.ri] }

// next advances to the following row.
func (it *segIter) next() {
	it.ri++
	if it.ri >= len(it.keys) {
		it.loadBlock(nil)
	}
}

// segmentWriter streams pk-ascending rows into a new segment file.
type segmentWriter struct {
	f      *os.File
	path   string
	schema Schema
	buf    []byte // current block
	rows   int
	minKey []byte
	maxKey []byte
	off    int64
	index  []byte
	nRows  int
	prev   []byte
	blocks int
	bloom  bloomBuilder // filter over every added key
}

// newSegmentWriter creates path (truncating any stale leftover) and
// writes the header.
func newSegmentWriter(path string, schema Schema) (*segmentWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return &segmentWriter{f: f, path: path, schema: schema, off: int64(len(segMagic))}, nil
}

// add appends one row; rows must arrive in strictly ascending primary-
// key order.
func (w *segmentWriter) add(row Row) error {
	key := encodeKey(row[w.schema.Primary])
	if w.prev != nil && bytes.Compare(w.prev, key) >= 0 {
		return fmt.Errorf("store: segment writer: rows out of order")
	}
	w.prev = key
	w.bloom.add(key)
	if w.rows == 0 {
		w.minKey = key
	}
	w.maxKey = key
	w.buf = encodeRow(w.buf, row)
	w.rows++
	w.nRows++
	if w.rows >= segmentBlockRows {
		return w.flushBlock()
	}
	return nil
}

// flushBlock writes the pending block and appends its index entry.
func (w *segmentWriter) flushBlock() error {
	if w.rows == 0 {
		return nil
	}
	if _, err := w.f.Write(w.buf); err != nil {
		return err
	}
	w.index = binary.AppendUvarint(w.index, uint64(len(w.buf)))
	w.index = binary.AppendUvarint(w.index, uint64(w.rows))
	w.index = binary.BigEndian.AppendUint32(w.index, crc32.ChecksumIEEE(w.buf))
	w.index = appendString(w.index, string(w.minKey))
	w.index = appendString(w.index, string(w.maxKey))
	w.off += int64(len(w.buf))
	w.buf = w.buf[:0]
	w.rows = 0
	w.blocks++
	return nil
}

// testHookSegmentFinish, when non-nil, injects an error into finish
// just before the footer write — compaction's finish-failure cleanup
// is exercised without needing a full disk.
var testHookSegmentFinish func(path string) error

// finish flushes the last block, writes the footer and fsyncs. On any
// error the partial file is removed and the descriptor closed.
func (w *segmentWriter) finish() (err error) {
	defer func() {
		if err != nil {
			w.f.Close()
			os.Remove(w.path)
		}
	}()
	if err = w.flushBlock(); err != nil {
		return err
	}
	if testHookSegmentFinish != nil {
		if err = testHookSegmentFinish(w.path); err != nil {
			return err
		}
	}
	schemaBytes := encodeCreateTablePayload(w.schema)
	meta := append(append([]byte(nil), w.index...), schemaBytes...)
	if _, err = w.f.Write(meta); err != nil {
		return err
	}
	var filterBytes []byte
	if bf := w.bloom.build(); bf != nil {
		filterBytes = bf.encode()
		if _, err = w.f.Write(filterBytes); err != nil {
			return err
		}
	}
	var tail [segTail2Len]byte
	binary.BigEndian.PutUint32(tail[0:4], uint32(len(w.index)))
	binary.BigEndian.PutUint32(tail[4:8], uint32(len(schemaBytes)))
	binary.BigEndian.PutUint32(tail[8:12], uint32(len(filterBytes)))
	binary.BigEndian.PutUint32(tail[12:16], crc32.ChecksumIEEE(meta))
	copy(tail[16:24], segTailMagic2)
	if _, err = w.f.Write(tail[:]); err != nil {
		return err
	}
	if err = w.f.Sync(); err != nil {
		return err
	}
	return w.f.Close()
}

// decodeSchemaPayload parses an opCreateTable payload (shared by WAL
// replay and the segment footer) into a validated Schema.
func decodeSchemaPayload(payload []byte) (Schema, error) {
	if len(payload) == 0 || payload[0] != opCreateTable {
		return Schema{}, ErrCorrupt
	}
	rest := payload[1:]
	name, rest, err := readString(rest)
	if err != nil {
		return Schema{}, err
	}
	if len(rest) < 2 {
		return Schema{}, ErrCorrupt
	}
	ncols, primary := int(rest[0]), int(rest[1])
	rest = rest[2:]
	s := Schema{Name: name, Primary: primary}
	for i := 0; i < ncols; i++ {
		var cname string
		cname, rest, err = readString(rest)
		if err != nil {
			return Schema{}, err
		}
		if len(rest) < 1 {
			return Schema{}, ErrCorrupt
		}
		s.Columns = append(s.Columns, Column{Name: cname, Type: ColType(rest[0])})
		rest = rest[1:]
	}
	if len(rest) != 0 {
		return Schema{}, ErrCorrupt
	}
	if len(s.Columns) == 0 || s.Primary < 0 || s.Primary >= len(s.Columns) {
		return Schema{}, ErrCorrupt
	}
	for _, c := range s.Columns {
		if c.Type < TInt || c.Type > TBool {
			return Schema{}, ErrCorrupt
		}
	}
	return s, nil
}
