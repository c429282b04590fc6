package store

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
)

// The write-ahead log holds every mutation since a shard's last
// compaction: each is appended as a CRC-framed record, and the memtables
// plus secondary indexes are rebuilt by replay on open. A truncated or
// corrupted tail (crash mid-write) is detected by the CRC and cut off.
//
// Record framing:
//
//	uint32  payload length
//	uint32  CRC32 (IEEE) of payload
//	payload bytes
//
// Payload: 1 op byte, then op-specific fields, each string
// length-prefixed with uvarint. Op bytes 2 (single-row insert) and 3
// (delete) are reserved: the store is append-only and writes every row
// through opInsertBatch, and replay treats a record of either type like
// any unknown op — the log is cut at it.
const (
	opCreateTable byte = 1
	// opInsertBatch frames many rows of one table in a single record:
	// table name, uvarint row count, then the encoded rows. Because the
	// CRC covers the whole record, a crash mid-batch drops the batch
	// atomically on recovery.
	opInsertBatch byte = 4
	// opCreateIndex records a secondary index and its included columns:
	//
	//	op byte 5 | table name | column name | [count | name × count]
	//
	// each name uvarint-length-prefixed and count a non-zero uvarint.
	// With no included columns the list is absent, so the record keeps
	// the bytes of versions without include lists (which cut a log at a
	// record that carries one). Replay takes the last record per column
	// and re-creates the index once replay ends (building it from the
	// rows applied), so indexes are durable and stay maintained by every
	// later record. A list naming an unknown column, the primary key or
	// a column twice is corrupt, and replay cuts the log there.
	opCreateIndex byte = 5
)

type wal struct {
	f   *os.File
	w   *bufio.Writer
	len int64
}

func openWAL(path string) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &wal{f: f, w: bufio.NewWriter(f), len: st.Size()}, nil
}

// replay streams every valid record to fn, then positions the file for
// appending. On a corrupt or truncated tail — a bad frame, a CRC
// mismatch, or a CRC-valid payload that fn rejects — it truncates the
// file to the last record that applied cleanly and reports how many
// records were dropped; it never fails on malformed input.
func (l *wal) replay(fn func(payload []byte) error) (dropped int, err error) {
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	r := bufio.NewReader(l.f)
	var offset int64
	var head [8]byte
	for {
		if _, err := io.ReadFull(r, head[:]); err != nil {
			if err == io.EOF {
				break
			}
			dropped = 1 // partial header
			break
		}
		n := binary.BigEndian.Uint32(head[0:4])
		sum := binary.BigEndian.Uint32(head[4:8])
		if n > 1<<26 { // 64 MiB sanity bound
			dropped = 1
			break
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			dropped = 1
			break
		}
		if crc32.ChecksumIEEE(payload) != sum {
			dropped = 1
			break
		}
		if err := fn(payload); err != nil {
			dropped = 1
			break
		}
		offset += int64(8 + n)
	}
	if dropped > 0 {
		if err := l.f.Truncate(offset); err != nil {
			return dropped, err
		}
	}
	l.len = offset
	if _, err := l.f.Seek(offset, io.SeekStart); err != nil {
		return dropped, err
	}
	l.w.Reset(l.f)
	return dropped, nil
}

// append frames and buffers one record.
func (l *wal) append(payload []byte) error {
	var head [8]byte
	binary.BigEndian.PutUint32(head[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(head[4:8], crc32.ChecksumIEEE(payload))
	if _, err := l.w.Write(head[:]); err != nil {
		return err
	}
	if _, err := l.w.Write(payload); err != nil {
		return err
	}
	l.len += int64(8 + len(payload))
	return nil
}

func (l *wal) flush() error { return l.w.Flush() }

func (l *wal) sync() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	return l.f.Sync()
}

func (l *wal) close() error {
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// payload builders and readers.

// encodeBatchPayload frames an opInsertBatch payload: op byte, table
// name, uvarint row count, then the encoded rows. It is the single
// encoder for the format applyLogRecord's opInsertBatch case decodes;
// logInsertBatch and Compact both go through it.
func encodeBatchPayload(table string, rows []memRow) []byte {
	payload := []byte{opInsertBatch}
	payload = appendString(payload, table)
	payload = binary.AppendUvarint(payload, uint64(len(rows)))
	for _, mr := range rows {
		payload = encodeRow(payload, mr.row)
	}
	return payload
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readString(buf []byte) (string, []byte, error) {
	u, k := binary.Uvarint(buf)
	if k <= 0 || uint64(len(buf[k:])) < u {
		return "", nil, ErrCorrupt
	}
	return string(buf[k : k+int(u)]), buf[k+int(u):], nil
}
