package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
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
//	[filter region]                           format 2 only; never read
//	uint32 indexLen | uint32 schemaLen
//	[uint32 filterLen]                        format 2 only
//	uint32 CRC32(index+schema) | magic        fixed tail
//
// Two tail formats exist. "MEDSEGF1" is the 20-byte tail with no filter
// region: the format written today. "MEDSEGF2" is the 24-byte tail of
// runs written by earlier versions, which placed a bloom filter of
// filterLen bytes between the schema and the tail. Keys ascend on every
// shard, so at most one run's zone map admits a key and a filter has
// nothing to reject: the loader dispatches on the magic and skips a
// format-2 filter region unread. The tail CRC covers exactly
// index+schema in both formats.
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
	segTailLen    = 8 + 4 + 8     // lens + crc + magic
	segTail2Len   = 8 + 4 + 4 + 8 // lens + filterLen + crc + magic

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
	minKey string
	maxKey string
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
	minKey string // zone map over the whole file
	maxKey string

	id    uint64      // process-unique cache key prefix
	cache *blockCache // shared decoded-block cache; nil disables caching

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
// trailing 8-byte magic selects the tail format; a format-2 filter
// region is skipped unread.
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
		b.minKey, buf, err = readString(buf)
		if err != nil {
			return nil, 0, err
		}
		b.maxKey, buf, err = readString(buf)
		if err != nil {
			return nil, 0, err
		}
		b.off = next
		b.length = int(length)
		b.rows = int(rows)
		if b.minKey > b.maxKey {
			return nil, 0, ErrCorrupt
		}
		if len(blocks) > 0 && blocks[len(blocks)-1].maxKey >= b.minKey {
			return nil, 0, ErrCorrupt
		}
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
// populates the cache for every future reader of this segment. A
// compaction merge (rs.noFill) reads from disk and leaves the cache and
// its hit/miss counters alone: the runs it reads are about to retire,
// and their blocks would only evict what readers use.
func (sg *segment) readBlock(bi int, rs *readStats) ([]Row, []string, error) {
	if sg.cache != nil && (rs == nil || !rs.noFill) {
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
func (sg *segment) readBlockDisk(bi int) ([]Row, []string, error) {
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
	keys := make([]string, 0, b.rows)
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
		if len(keys) > 0 && keys[len(keys)-1] >= key {
			return nil, nil, ErrCorrupt // rows must be strictly ascending
		}
		rows = append(rows, row)
		keys = append(keys, key)
	}
	if len(buf) != 0 {
		return nil, nil, ErrCorrupt
	}
	return rows, keys, nil
}

// get returns the row with the given primary key, using the zone maps
// to answer most misses without touching the file.
func (sg *segment) get(key string, rs *readStats) (Row, bool, error) {
	bi := sort.Search(len(sg.blocks), func(i int) bool { return sg.blocks[i].maxKey >= key })
	if bi == len(sg.blocks) || sg.blocks[bi].minKey > key {
		return nil, false, nil
	}
	rows, keys, err := sg.readBlock(bi, rs)
	if err != nil {
		return nil, false, err
	}
	i, found := slices.BinarySearch(keys, key)
	if !found {
		return nil, false, nil
	}
	return rows[i], true, nil
}

// runCursor finds ascending keys in a shard's runs in one forward walk
// of their block indexes: the keys and the runs both ascend, so a
// single block cursor advances and each touched block is decoded once
// per walk, the whole point of batching. A key no run holds is
// corruption: the index that named it lists only stored keys.
type runCursor struct {
	segs []*segment // the runs not yet passed, oldest first
	bi   int        // the first block of segs[0] not yet loaded
	rows []Row      // the loaded block's rows and keys past the last found
	keys []string
}

// get returns the row of key, which is above every key asked before.
// A key arrives as bytes, compared in place, so asking allocates
// nothing.
func (c *runCursor) get(key []byte, rs *readStats) (Row, error) {
	for {
		if i := sort.Search(len(c.keys), func(i int) bool { return c.keys[i] >= string(key) }); i < len(c.keys) {
			if c.keys[i] != string(key) {
				return nil, errMissingRow
			}
			row := c.rows[i]
			c.rows, c.keys = c.rows[i+1:], c.keys[i+1:]
			return row, nil
		}
		// key is above the loaded block: load the first block of the
		// first run whose maximum admits it.
		for len(c.segs) > 0 && c.segs[0].maxKey < string(key) {
			c.segs, c.bi = c.segs[1:], 0
		}
		if len(c.segs) == 0 {
			return nil, errMissingRow
		}
		blocks := c.segs[0].blocks
		c.bi += sort.Search(len(blocks)-c.bi, func(i int) bool { return blocks[c.bi+i].maxKey >= string(key) })
		if c.bi == len(blocks) {
			return nil, errMissingRow
		}
		var err error
		if c.rows, c.keys, err = c.segs[0].readBlock(c.bi, rs); err != nil {
			return nil, err
		}
		c.bi++ // a block whose rows belie its zone map cannot be loaded twice
	}
}

// segmentWriter streams pk-ascending rows into a new segment file.
type segmentWriter struct {
	f      *os.File
	path   string
	schema Schema
	buf    []byte // current block
	rows   int
	minKey string
	maxKey string
	off    int64
	index  []byte
	nRows  int
	blocks int
	want   int // rows the run was sized for
}

// newSegmentWriter creates path (truncating any stale leftover) and
// writes the header. nRows is the exact number of rows the caller will
// add: finish fails if a different number arrived.
func newSegmentWriter(path string, schema Schema, nRows int) (*segmentWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return &segmentWriter{f: f, path: path, schema: schema, off: int64(len(segMagic)), want: nRows}, nil
}

// add appends one row; rows must arrive in strictly ascending primary-
// key order.
func (w *segmentWriter) add(row Row) error {
	key := encodeKey(row[w.schema.Primary])
	if key <= w.maxKey {
		return fmt.Errorf("store: segment writer: rows out of order")
	}
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
	w.index = appendString(w.index, w.minKey)
	w.index = appendString(w.index, w.maxKey)
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
// error — including a row count other than the one the writer was sized
// for — the partial file is removed and the descriptor closed.
func (w *segmentWriter) finish() (err error) {
	defer func() {
		if err != nil {
			w.f.Close()
			os.Remove(w.path)
		}
	}()
	if w.nRows != w.want {
		return fmt.Errorf("store: segment writer: %d rows added, run sized for %d", w.nRows, w.want)
	}
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
	var tail [segTailLen]byte
	binary.BigEndian.PutUint32(tail[0:4], uint32(len(w.index)))
	binary.BigEndian.PutUint32(tail[4:8], uint32(len(schemaBytes)))
	binary.BigEndian.PutUint32(tail[8:12], crc32.ChecksumIEEE(meta))
	copy(tail[12:20], segTailMagic)
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
