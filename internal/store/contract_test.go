package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The tests in this file pin the store's write contract: within a
// shard, a table's primary keys strictly ascend. Refused batches stay
// invisible to concurrent readers (TestShardedDuplicateBatchAtomic
// checks that they change nothing); Open refuses runs whose key ranges
// overlap; replay cuts a log record whose keys go backwards; and
// CreateIndex builds on every shard before it installs or logs.

// shardState is what a refused write must leave unchanged on a shard:
// its rows in scan order, its log size and every index's postings.
type shardState struct {
	rows    []Row
	logSize int64
	indexes map[string]string // column → rendered postings
}

// captureShardStates records every shard's state of tbl.
func captureShardStates(t *testing.T, tbl *Table) []shardState {
	t.Helper()
	out := make([]shardState, len(tbl.shards))
	for i, ts := range tbl.shards {
		ts.mu.RLock()
		ss := ts.captureLocked()
		st := shardState{logSize: ts.shard.logSize(), indexes: make(map[string]string)}
		for col, ix := range ts.secondary {
			var b strings.Builder
			ix.tree.AscendRange("", "", func(sk string, v interface{}) bool {
				pl := v.(*postingList)
				fmt.Fprintf(&b, "%q:%q/%d+%d;", sk, pl.stream, pl.n, len(pl.mem))
				return true
			})
			st.indexes[col] = b.String()
		}
		ts.mu.RUnlock()
		err := ss.iterate("", "", nil, func(_ string, row Row) bool {
			st.rows = append(st.rows, row)
			return true
		})
		ss.release()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = st
	}
	return out
}

// keyOn returns the smallest id >= from that routes to shard si of n.
func keyOn(from int64, si, n int) int64 {
	for id := from; ; id++ {
		if shardIndex(encodeKey(Int(id)), n) == si {
			return id
		}
	}
}

// TestOpenRefusesOverlappingRuns: a manifest listing two runs of one
// table whose key ranges overlap — format-2 runs, as earlier versions
// wrote them — breaks the invariant every read relies on. Open returns
// ErrCorrupt and changes no file: no stray is swept, no log is cut or
// repaired.
func TestOpenRefusesOverlappingRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "overlap.db")
	db, err := OpenSharded(path, 2)
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
	fillAttrs(t, tbl, 100) // ids 1..300
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	var more []Row
	for id := int64(301); id <= 600; id++ {
		more = append(more, Row{Int(id), Int(id % 40), Str("pulse"), Str("x"), Float(float64(id))})
	}
	if err := tbl.InsertBatch(more); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertBatch([]Row{{Int(601), Int(1), Str("pulse"), Str("x"), Float(1)}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Shard 1's newer run is rewritten to hold ids reaching back into
	// the older run's range; every run file becomes format 2.
	segsDir := segsDirFor(filepath.Join(path, shardDirName(1), shardWALName))
	runs, err := filepath.Glob(filepath.Join(segsDir, "seg-*.seg"))
	if err != nil || len(runs) != 2 {
		t.Fatalf("shard 1 runs %v (err %v), want 2", runs, err)
	}
	slices.Sort(runs)
	var overlap []Row
	for id := int64(150); id <= 600; id++ {
		if shardIndex(encodeKey(Int(id)), 2) == 1 {
			overlap = append(overlap, Row{Int(id), Int(id % 40), Str("pulse"), Str("x"), Float(float64(id))})
		}
	}
	sg, err := writeTableRun(runs[1], attrSchema(), len(overlap), func(add func(Row) error) error {
		for _, r := range overlap {
			if err := add(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sg.unref()
	for _, p := range runs {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, format2SegmentBytes(t, raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A stray beside the runs, which an accepted open would sweep.
	if err := os.WriteFile(filepath.Join(segsDir, "seg-999999-000.seg"), []byte("stray"), 0o644); err != nil {
		t.Fatal(err)
	}
	files := func() map[string][]byte {
		m := make(map[string][]byte)
		err := filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			m[p], err = os.ReadFile(p)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	want := files()
	db, err = OpenSharded(path, 0)
	if err == nil {
		db.Close()
		t.Fatal("Open accepted a table whose runs overlap")
	}
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("Open = %v, want an ErrCorrupt naming the overlap", err)
	}
	got := files()
	if len(got) != len(want) {
		t.Fatalf("refused open left %d files, want %d", len(got), len(want))
	}
	for p, b := range want {
		if !bytes.Equal(got[p], b) {
			t.Fatalf("refused open changed %s", p)
		}
	}
}

// frameRecord frames one WAL payload as the log writes it.
func frameRecord(payload []byte) []byte {
	var head [8]byte
	binary.BigEndian.PutUint32(head[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(head[4:8], crc32.ChecksumIEEE(payload))
	return append(head[:], payload...)
}

// backwardKeysWALBytes is validWALBytes (ids 1..3) followed by a
// CRC-valid batch record whose keys go backwards (5, then 4) and a
// sound batch after it (id 6).
func backwardKeysWALBytes(tb testing.TB) []byte {
	tb.Helper()
	raw := validWALBytes(tb)
	mr := func(id int64) memRow {
		r := Row{Int(id), Int(1), Str("pulse"), Str("x"), Float(70)}
		return memRow{key: encodeKey(r[0]), row: r}
	}
	raw = append(raw, frameRecord(encodeBatchPayload("extracted", []memRow{mr(5), mr(4)}))...)
	return append(raw, frameRecord(encodeBatchPayload("extracted", []memRow{mr(6)}))...)
}

// TestReplayCutsBackwardKeys: a CRC-valid log record whose keys go
// backwards is malformed. Replay applies none of its rows, cuts the
// log there like any corrupt tail — the sound record after it goes too
// — and reports one dropped record; the second open is clean. A record
// whose key falls below the keys already replayed is cut the same way.
func TestReplayCutsBackwardKeys(t *testing.T) {
	valid := validWALBytes(t)
	mr := func(id int64) memRow {
		r := Row{Int(id), Int(1), Str("pulse"), Str("x"), Float(70)}
		return memRow{key: encodeKey(r[0]), row: r}
	}
	for name, data := range map[string][]byte{
		"backwards in the record": backwardKeysWALBytes(t),
		"below the replayed keys": append(append([]byte(nil), valid...), frameRecord(encodeBatchPayload("extracted", []memRow{mr(2)}))...),
	} {
		t.Run(strings.ReplaceAll(name, " ", "_"), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "back.db")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			db, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			h := db.Health()
			tbl, err := db.Table("extracted")
			if err != nil {
				t.Fatal(err)
			}
			var ids []int64
			for _, r := range collectRows(tbl) {
				ids = append(ids, r[0].I)
			}
			checkIndexConsistent(t, tbl)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if !h.RecoveredWithLoss || h.DroppedRecords != 1 {
				t.Fatalf("Health = %+v, want one dropped record reported", h)
			}
			if !slices.Equal(ids, []int64{1, 2, 3}) {
				t.Fatalf("replayed ids %v, want [1 2 3]", ids)
			}
			if st, err := os.Stat(path); err != nil || st.Size() != int64(len(valid)) {
				t.Fatalf("log not cut at the bad record: %v bytes, want %d (err %v)", st.Size(), len(valid), err)
			}
			db, err = Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if h := db.Health(); !h.Ok() {
				t.Fatalf("second open: %+v", h)
			}
		})
	}
}

// TestCreateIndexBuildsBeforeInstalling: CreateIndex on a 2-shard,
// 1-run table whose shard-1 run has a corrupt block 0 fails with
// ErrCorrupt, and because every shard builds before any installs or
// logs, no shard holds the index, Stats does not list it, no log grew,
// and the store reopens.
func TestCreateIndexBuildsBeforeInstalling(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.db")
	db, err := OpenSharded(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillAttrs(t, tbl, 200)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	logs := []int64{db.shards[0].logSize(), db.shards[1].logSize()}
	ts := tbl.shards[1]
	if len(ts.segs) != 1 {
		t.Fatalf("shard 1 holds %d runs, want 1", len(ts.segs))
	}
	sg := ts.segs[0]
	f, err := os.OpenFile(sg.path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := []byte{0}
	off := sg.blocks[0].off + 3
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := tbl.CreateIndex("attribute"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("CreateIndex over a corrupt block = %v, want ErrCorrupt", err)
	}
	for i, ts := range tbl.shards {
		if _, ok := ts.secondary["attribute"]; ok {
			t.Errorf("shard %d installed the index its sibling could not build", i)
		}
		if got := db.shards[i].logSize(); got != logs[i] {
			t.Errorf("shard %d log %d → %d bytes: a failed build logged", i, logs[i], got)
		}
	}
	if names := tbl.Stats().IndexNames; len(names) != 0 {
		t.Errorf("Stats lists indexes %v after the failed build", names)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(path)
	if err != nil {
		t.Fatalf("reopen after the failed CreateIndex: %v", err)
	}
	defer db.Close()
	if tbl, err = db.Table("extracted"); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 600 || len(tbl.Stats().IndexNames) != 0 {
		t.Fatalf("reopened: %d rows, indexes %v; want 600 rows, none", tbl.Len(), tbl.Stats().IndexNames)
	}
}

// TestRefusedBatchesInvisibleToReaders runs one logical writer — ids
// allocated and inserted under one lock — beside concurrent readers on
// a 4-shard store with an index and a background compactor. Every
// other batch carries a key that repeats one already stored; those are
// refused whole. Readers must never see a row of a refused batch (its
// value column says "refused"), every scan must ascend, and MaxPK must
// never move backwards.
func TestRefusedBatchesInvisibleToReaders(t *testing.T) {
	db, err := OpenShardedWithPolicy(filepath.Join(t.TempDir(), "vis.db"), 4, CompactionPolicy{MemRows: 64, Fanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("value"); err != nil {
		t.Fatal(err)
	}
	const batches, perBatch = 120, 12
	var (
		writeMu sync.Mutex
		next    = int64(1)
		wg      sync.WaitGroup
	)
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches/2; b++ {
				writeMu.Lock()
				refuse := next > 1 && b%2 == 1
				value := "ok"
				if refuse {
					value = "refused"
				}
				var rows []Row
				if refuse { // first, so only its shard's last key refuses it
					rows = append(rows, Row{Int(next - 1), Int(0), Str("pulse"), Str(value), Float(0)})
				}
				for i := int64(0); i < perBatch; i++ {
					rows = append(rows, Row{Int(next + i), Int((next + i) % 9), Str("pulse"), Str(value), Float(0)})
				}
				err := tbl.InsertBatch(rows)
				if err == nil {
					next += perBatch
				}
				writeMu.Unlock()
				if refuse != errors.Is(err, ErrKeyOrder) || (!refuse && err != nil) {
					t.Errorf("batch %d (refuse=%v): err = %v", b, refuse, err)
					return
				}
			}
		}()
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastMax int64
			for {
				select {
				case <-done:
					return
				default:
				}
				rows, _, err := tbl.Query(Query{Preds: []Pred{Eq("value", Str("refused"))}})
				if err != nil || len(rows) != 0 {
					t.Errorf("refused rows visible: %d (err %v)", len(rows), err)
					return
				}
				prev := int64(0)
				if err := tbl.Scan(func(r Row) bool {
					if r[0].I <= prev || r[3].S != "ok" {
						t.Errorf("scan saw %v after id %d", r, prev)
						return false
					}
					prev = r[0].I
					return true
				}); err != nil {
					t.Error(err)
					return
				}
				if pk, ok, err := tbl.MaxPK(); err != nil || (ok && pk.I < lastMax) {
					t.Errorf("MaxPK = %v, %v after %d", pk, err, lastMax)
					return
				} else if ok {
					lastMax = pk.I
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if got, want := tbl.Len(), int(next-1); got != want {
		t.Fatalf("Len = %d, want the %d accepted rows", got, want)
	}
	checkIndexConsistent(t, tbl)
}
