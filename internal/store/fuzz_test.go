package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The fuzz targets pin the store's crash-safety contract on arbitrary
// bytes: a WAL of any content opens without panicking — corrupt content
// is truncated and reported, never fatal — and the row codec decodes
// any buffer without panicking, round-tripping whatever it accepts.
// Seed corpora are checked in under testdata/fuzz.

// validWALBytes builds a well-formed log (create table, create index,
// single-row insert, batch insert) to seed the fuzzer near the real
// format.
func validWALBytes(tb testing.TB) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed.db")
	db, err := Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		tb.Fatal(err)
	}
	if err := tbl.CreateIndex("attribute"); err != nil {
		tb.Fatal(err)
	}
	if err := tbl.Insert(Row{Int(1), Int(1), Str("pulse"), Str("x"), Float(84)}); err != nil {
		tb.Fatal(err)
	}
	if err := tbl.InsertBatch([]Row{
		{Int(2), Int(1), Str("smoking"), Str("never"), Float(0)},
		{Int(3), Int(2), Str("pulse"), Str("x"), Float(98)},
	}); err != nil {
		tb.Fatal(err)
	}
	if err := db.Close(); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// FuzzWALReplay feeds arbitrary bytes to Open as a log file. Whatever
// the content, Open must succeed (truncating garbage), leave every
// index consistent with its table, and recover idempotently: a second
// open of the truncated log must replay cleanly with no further loss.
func FuzzWALReplay(f *testing.F) {
	seed := validWALBytes(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-3]) // torn tail
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 42})
	flip := append([]byte(nil), seed...)
	flip[len(flip)/2] ^= 0xff
	f.Add(flip)
	f.Add(backwardKeysWALBytes(f)) // a CRC-valid record whose keys go backwards
	f.Add(badIncludeWALBytes(f))   // a CRC-valid create-index record whose include list names no column

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.db")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(path)
		if err != nil {
			t.Fatalf("Open on arbitrary bytes must not fail: %v", err)
		}
		rowCounts := make(map[string]int, len(db.tables))
		for name, tbl := range db.tables {
			rowCounts[name] = tbl.Len()
			checkIndexConsistent(t, tbl)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("Close after recovery: %v", err)
		}

		db, err = Open(path)
		if err != nil {
			t.Fatalf("second Open must replay the truncated log cleanly: %v", err)
		}
		defer db.Close()
		if db.Health().RecoveredWithLoss {
			t.Fatal("recovery not idempotent: second open dropped records again")
		}
		for name, n := range rowCounts {
			tbl, err := db.Table(name)
			if err != nil {
				t.Fatalf("table %q lost on second open: %v", name, err)
			}
			if tbl.Len() != n {
				t.Fatalf("table %q rows %d != %d after reopen", name, tbl.Len(), n)
			}
		}
	})
}

// TestFuzzWALSeedIsCurrent pins the checked-in valid-log seed to the
// log format the store writes today: it must equal validWALBytes and
// open with no loss, so the fuzzer starts from records replay accepts
// rather than from a log it cuts at the first record.
func TestFuzzWALSeedIsCurrent(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzWALReplay", "valid-log"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
		t.Fatalf("unexpected seed file layout: %q", raw)
	}
	quoted := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
	seed, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatal(err)
	}
	if seed != string(validWALBytes(t)) {
		t.Fatal("valid-log seed is stale; regenerate with GEN_FUZZ_SEEDS=1 go test -run TestGenSeedCorpora")
	}
	path := filepath.Join(t.TempDir(), "seed.db")
	if err := os.WriteFile(path, []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if h := db.Health(); h.RecoveredWithLoss {
		t.Fatalf("valid-log seed opened with loss: %+v", h)
	}
	tbl, err := db.Table("extracted")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 3 {
		t.Fatalf("valid-log seed holds %d rows, want 3", tbl.Len())
	}
	checkIndexConsistent(t, tbl)
}

// validShardWALBytes builds one shard's well-formed WAL by writing a
// 2-shard store and reading back the given shard's log, seeding the
// sharded fuzzer near the real format.
func validShardWALBytes(tb testing.TB, shard int) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed.db")
	db, err := OpenSharded(path, 2)
	if err != nil {
		tb.Fatal(err)
	}
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		tb.Fatal(err)
	}
	if err := tbl.CreateIndex("attribute"); err != nil {
		tb.Fatal(err)
	}
	if err := tbl.InsertBatch([]Row{
		{Int(1), Int(1), Str("pulse"), Str("x"), Float(84)},
		{Int(2), Int(1), Str("smoking"), Str("never"), Float(0)},
		{Int(3), Int(2), Str("pulse"), Str("x"), Float(98)},
		{Int(4), Int(2), Str("weight"), Str("x"), Float(61)},
	}); err != nil {
		tb.Fatal(err)
	}
	if err := db.Close(); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(path, shardDirName(shard), shardWALName))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// FuzzShardWALReplay feeds arbitrary bytes to one shard of a 2-shard
// layout while the other shard holds a valid log. Whatever the corrupt
// shard contains, the engine must open (repairing the torn shard's
// table/index inventory from the healthy one), the healthy shard's rows
// must all survive, every index must match its table per shard, and a
// second open must replay cleanly with no further loss.
func FuzzShardWALReplay(f *testing.F) {
	seed := validShardWALBytes(f, 1)
	f.Add(seed)
	f.Add(seed[:len(seed)-3]) // torn tail
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 42})
	flip := append([]byte(nil), seed...)
	flip[len(flip)/2] ^= 0xff
	f.Add(flip)

	healthy := validShardWALBytes(f, 0)
	healthyRows := 0
	for _, pk := range []int64{1, 2, 3, 4} {
		if shardIndex(encodeKey(Int(pk)), 2) == 0 {
			healthyRows++
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.db")
		for i := 0; i < 2; i++ {
			if err := os.MkdirAll(filepath.Join(path, shardDirName(i)), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(path, shardDirName(0), shardWALName), healthy, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(path, shardDirName(1), shardWALName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := OpenSharded(path, 0)
		if err != nil {
			// One open failure is legitimate: a CRC-valid create-table
			// record whose schema conflicts with the healthy shard's
			// cannot be repaired and must be refused, not guessed at.
			if strings.Contains(err.Error(), "disagree on schema") {
				return
			}
			t.Fatalf("sharded Open on arbitrary shard-1 bytes must not fail: %v", err)
		}
		tbl, err := db.Table("extracted")
		if err != nil {
			t.Fatalf("healthy shard's table lost: %v", err)
		}
		for _, pk := range []int64{1, 2, 3, 4} {
			if shardIndex(encodeKey(Int(pk)), 2) != 0 {
				continue
			}
			if _, err := tbl.Get(Int(pk)); err != nil {
				t.Fatalf("healthy shard row %d lost to shard-1 corruption", pk)
			}
		}
		checkIndexConsistent(t, tbl)
		rows := tbl.Len()
		if rows < healthyRows {
			t.Fatalf("%d rows < %d healthy-shard rows", rows, healthyRows)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("Close after recovery: %v", err)
		}

		db, err = OpenSharded(path, 0)
		if err != nil {
			t.Fatalf("second Open must replay the truncated logs cleanly: %v", err)
		}
		defer db.Close()
		if db.Health().RecoveredWithLoss {
			t.Fatal("recovery not idempotent: second open dropped records again")
		}
		tbl, err = db.Table("extracted")
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Len() != rows {
			t.Fatalf("rows %d != %d after reopen", tbl.Len(), rows)
		}
		checkIndexConsistent(t, tbl)
	})
}

// FuzzRowCodec decodes arbitrary bytes as an n-column row. Decoding
// must never panic; whatever decodes successfully must re-encode to the
// consumed bytes and decode back equal.
func FuzzRowCodec(f *testing.F) {
	rowBytes := encodeRow(nil, Row{Int(-7), Float(3.5), Str("pulse"), Bool(true)})
	f.Add(rowBytes, 4)
	f.Add(encodeRow(nil, Row{Str(""), Int(0)}), 2)
	f.Add([]byte{byte(TString), 0xff, 0xff, 0xff}, 1) // oversized length prefix
	f.Add([]byte{}, 1)
	f.Add([]byte{0}, 3)

	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n <= 0 || n > 64 {
			n = n%64 + 1
			if n <= 0 {
				n += 64
			}
		}
		row, rest, err := decodeValues(data, n)
		if err != nil {
			return // rejected cleanly
		}
		if len(row) != n {
			t.Fatalf("decoded %d values, asked for %d", len(row), n)
		}
		consumed := data[:len(data)-len(rest)]
		re := encodeRow(nil, row)
		row2, err := decodeRow(re, n)
		if err != nil {
			t.Fatalf("re-decode of re-encoded row failed: %v (original %x)", err, consumed)
		}
		for i := range row {
			if row[i] != row2[i] {
				// NaN floats are unequal to themselves; treat matching
				// bit patterns as equal.
				if row[i].Type == TFloat && row2[i].Type == TFloat &&
					row[i].F != row[i].F && row2[i].F != row2[i].F {
					continue
				}
				t.Fatalf("round-trip mismatch at %d: %v vs %v", i, row[i], row2[i])
			}
		}
		// Keys must be computable for any decoded value (replay indexes
		// arbitrary decoded rows).
		for _, v := range row {
			_ = encodeKey(v)
		}
	})
}

// validSegmentBytes builds a well-formed segment file (multiple blocks,
// footer schema) to seed FuzzSegmentDecode near the real format.
func validSegmentBytes(tb testing.TB) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed.seg")
	const n = 2*segmentBlockRows + 17
	w, err := newSegmentWriter(path, attrSchema(), n)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		row := Row{Int(int64(i)), Int(int64(i % 9)), Str("pulse"), Str("v"), Float(float64(i))}
		if err := w.add(row); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.finish(); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// segFilterOff returns the offset of the filter region in a format-2
// segment image.
func segFilterOff(tb testing.TB, raw []byte) int {
	tb.Helper()
	if string(raw[len(raw)-8:]) != segTailMagic2 {
		tb.Fatalf("not a %s segment", segTailMagic2)
	}
	filterLen := int(binary.BigEndian.Uint32(raw[len(raw)-segTail2Len+8:]))
	if filterLen == 0 {
		tb.Fatal("segment has no filter region")
	}
	return len(raw) - segTail2Len - filterLen
}

// FuzzSegmentDecode feeds arbitrary bytes to openSegment. The contract:
// malformed input is rejected with an error, never a panic or an OOM
// pre-allocation; input that opens must iterate in strictly ascending
// key order, agree with its advertised row count, and serve its zone
// maps' min/max keys by point get.
func FuzzSegmentDecode(f *testing.F) {
	seed := validSegmentBytes(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-3]) // torn tail
	flip := append([]byte(nil), seed...)
	flip[len(flip)/2] ^= 0xff // corrupt block body
	f.Add(flip)
	metaFlip := append([]byte(nil), seed...)
	metaFlip[len(metaFlip)-segTailLen+2] ^= 0xff // corrupt index length
	f.Add(metaFlip)
	f2 := format2SegmentBytes(f, seed) // an earlier version's run
	f.Add(f2)
	filterFlip := append([]byte(nil), f2...)
	// First filter-region byte: the region is never read, so the open
	// must not notice.
	filterFlip[segFilterOff(f, f2)] ^= 0xff
	f.Add(filterFlip)
	f.Add([]byte{})
	f.Add([]byte(segMagic))

	// One reusable scratch file per fuzz worker process: a TempDir per
	// exec would throttle the fuzzer to file-system metadata speed.
	scratch := filepath.Join(os.TempDir(), fmt.Sprintf("fuzzseg-%d.seg", os.Getpid()))
	f.Cleanup(func() { os.Remove(scratch) })

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(scratch, data, 0o644); err != nil {
			t.Skip()
		}
		path := scratch
		sg, err := openSegment(path)
		if err != nil {
			return // rejected cleanly
		}
		defer sg.unref()
		n := 0
		prev := ""
		ss := shardSnap{segs: []*segment{sg}}
		if err := ss.iterate("", "", nil, func(k string, _ Row) bool {
			if n > 0 && prev >= k {
				t.Fatalf("iteration keys not strictly ascending")
			}
			prev = k
			n++
			return true
		}); err != nil {
			return // block-level corruption surfaced as an error: fine
		}
		if n != sg.nRows {
			t.Fatalf("iterated %d rows, footer advertises %d", n, sg.nRows)
		}
		if len(sg.blocks) > 0 {
			for _, k := range []string{sg.minKey, sg.maxKey} {
				if _, ok, err := sg.get(k, nil); err == nil && !ok {
					t.Fatalf("zone-map key absent from segment")
				}
			}
		}
	})
}
