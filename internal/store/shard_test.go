package store

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// compatFixtureOps replays the exact operation sequence that generated
// testdata/compat/seed-pr3.wal (written by the pre-shard engine).
func compatFixtureOps(t testing.TB, db *DB) {
	t.Helper()
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"attribute", "patient"} {
		if err := tbl.CreateIndex(col); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Insert(Row{Int(1), Int(1), Str("pulse"), Str("x"), Float(84)}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertBatch([]Row{
		{Int(2), Int(1), Str("smoking"), Str("never"), Float(0)},
		{Int(3), Int(2), Str("pulse"), Str("x"), Float(98)},
		{Int(4), Int(2), Str("weight"), Str("x"), Float(61)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(Int(4)); err != nil {
		t.Fatal(err)
	}
}

// TestSingleShardByteCompat pins the acceptance criterion that a
// single-shard engine is byte-compatible with the pre-shard store: it
// opens the checked-in pre-refactor WAL unchanged, recovers the same
// rows and indexes, and — writing the same operation sequence — emits a
// byte-identical log.
func TestSingleShardByteCompat(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "compat", "seed-pr3.wal"))
	if err != nil {
		t.Fatal(err)
	}

	// 1. The old file opens unchanged, with no recovery loss.
	path := filepath.Join(t.TempDir(), "seed.db")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.RecoveredWithLoss() {
		t.Error("pre-refactor WAL reported recovery loss")
	}
	if db.Shards() != 1 {
		t.Errorf("single-file store opened with %d shards", db.Shards())
	}
	tbl, err := db.Table("extracted")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 3 {
		t.Errorf("rows = %d, want 3 (ids 1-3; id 4 was deleted)", tbl.Len())
	}
	for pk, attr := range map[int64]string{1: "pulse", 2: "smoking", 3: "pulse"} {
		row, err := tbl.Get(Int(pk))
		if err != nil || row[2].S != attr {
			t.Errorf("row %d: %v, %v (want attribute %s)", pk, row, err, attr)
		}
	}
	st := tbl.Stats()
	if st.Indexes != 2 || len(st.IndexNames) != 2 {
		t.Errorf("indexes not recovered: %+v", st)
	}
	checkIndexConsistent(t, tbl)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// 2. The new engine writes the identical byte stream.
	path2 := filepath.Join(t.TempDir(), "fresh.db")
	db2, err := Open(path2)
	if err != nil {
		t.Fatal(err)
	}
	compatFixtureOps(t, db2)
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	fresh, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if string(fresh) != string(golden) {
		t.Errorf("single-shard WAL not byte-identical to pre-refactor log: %d vs %d bytes", len(fresh), len(golden))
	}
}

// shardedPair builds the same table, indexes and rows in a single-shard
// and an n-shard WAL-backed engine.
func shardedPair(t *testing.T, n, patients int) (single, sharded *DB) {
	t.Helper()
	var err error
	single, err = Open(filepath.Join(t.TempDir(), "single.db"))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err = OpenSharded(filepath.Join(t.TempDir(), "sharded.db"), n)
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range []*DB{single, sharded} {
		tbl, err := db.CreateTable(attrSchema())
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range []string{"attribute", "numeric"} {
			if err := tbl.CreateIndex(col); err != nil {
				t.Fatal(err)
			}
		}
		fillAttrs(t, tbl, patients)
	}
	t.Cleanup(func() { single.Close(); sharded.Close() })
	return single, sharded
}

// TestShardedQueryParity pins the acceptance criterion that fan-out
// query execution returns the same rows as the single-shard engine on
// the same data — and, because the merge restores the deterministic
// single-shard order, in the same order too.
func TestShardedQueryParity(t *testing.T) {
	single, sharded := shardedPair(t, 4, 40)
	st, err := single.Table("extracted")
	if err != nil {
		t.Fatal(err)
	}
	sh, err := sharded.Table("extracted")
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != sh.Len() {
		t.Fatalf("row counts differ: %d vs %d", st.Len(), sh.Len())
	}

	queries := []Query{
		{Preds: []Pred{Eq("attribute", Str("pulse"))}},
		{Preds: []Pred{Eq("attribute", Str("smoking")), Eq("value", Str("current"))}},
		{Preds: []Pred{Ge("numeric", Float(80)), Lt("numeric", Float(100))}},
		{Preds: []Pred{Eq("value", Str("never"))}}, // unindexed: scan fallback
		{Preds: []Pred{Eq("attribute", Str("pulse"))}, Limit: 7},
		{Preds: []Pred{Gt("numeric", Float(55))}, Limit: 11},
	}
	for qi, q := range queries {
		want, wantStats, err := st.Query(q)
		if err != nil {
			t.Fatalf("query %d single: %v", qi, err)
		}
		got, gotStats, err := sh.Query(q)
		if err != nil {
			t.Fatalf("query %d sharded: %v", qi, err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d rows sharded vs %d single", qi, len(got), len(want))
		}
		for i := range want {
			if !rowsEqual(got[i], want[i]) {
				t.Errorf("query %d row %d: %v != %v", qi, i, got[i], want[i])
			}
		}
		if wantStats.Shards != 1 || gotStats.Shards != 4 {
			t.Errorf("query %d: shard stats %d/%d, want 1/4", qi, wantStats.Shards, gotStats.Shards)
		}
		if gotStats.UsedIndex != wantStats.UsedIndex || gotStats.FullScan != wantStats.FullScan {
			t.Errorf("query %d: plans diverge: single %+v sharded %+v", qi, wantStats, gotStats)
		}
	}

	// Lookup and Scan merge into the single-shard order.
	for _, col := range []string{"attribute"} {
		want, err := st.Lookup(col, Str("pulse"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sh.Lookup(col, Str("pulse"))
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("Lookup(%s): %d vs %d rows", col, len(got), len(want))
		}
		for i := range want {
			if !rowsEqual(got[i], want[i]) {
				t.Errorf("Lookup(%s) row %d: %v != %v", col, i, got[i], want[i])
			}
		}
	}
	var wantScan, gotScan []Row
	st.Scan(func(r Row) bool { wantScan = append(wantScan, r); return true })
	sh.Scan(func(r Row) bool { gotScan = append(gotScan, r); return true })
	if len(wantScan) != len(gotScan) {
		t.Fatalf("Scan: %d vs %d rows", len(gotScan), len(wantScan))
	}
	for i := range wantScan {
		if !rowsEqual(gotScan[i], wantScan[i]) {
			t.Errorf("Scan row %d: %v != %v", i, gotScan[i], wantScan[i])
		}
	}
}

// TestShardedRowsActuallyPartition guards against a routing collapse
// (everything hashing to one shard would nullify the parallelism).
func TestShardedRowsActuallyPartition(t *testing.T) {
	_, sharded := shardedPair(t, 4, 40)
	tbl, err := sharded.Table("extracted")
	if err != nil {
		t.Fatal(err)
	}
	for i, ts := range tbl.shards {
		ts.mu.RLock()
		n := ts.primary.Len()
		ts.mu.RUnlock()
		if n == 0 {
			t.Errorf("shard %d holds no rows: routing is degenerate", i)
		}
	}
}

// TestShardedReopen verifies the directory layout round-trips: reopen
// auto-detects the shard count, keeps every row and index, and rejects
// a conflicting shard count instead of silently re-routing rows.
func TestShardedReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "extracted.db")
	db, err := OpenSharded(path, 3)
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
	fillAttrs(t, tbl, 20)
	want := tbl.Len()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		if st, err := os.Stat(filepath.Join(path, shardDirName(i), shardWALName)); err != nil || st.Size() == 0 {
			t.Fatalf("shard %d WAL missing or empty: %v", i, err)
		}
	}

	db, err = OpenSharded(path, 0) // auto-detect
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Shards() != 3 {
		t.Errorf("auto-detected %d shards, want 3", db.Shards())
	}
	if db.RecoveredWithLoss() {
		t.Error("clean reopen reported loss")
	}
	tbl, err = db.Table("extracted")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != want {
		t.Errorf("rows after reopen = %d, want %d", tbl.Len(), want)
	}
	checkIndexConsistent(t, tbl)

	if _, err := OpenSharded(path, 2); err == nil {
		t.Error("resharding a 3-shard store to 2 was accepted")
	}
	single := filepath.Join(dir, "single.db")
	if sdb, err := Open(single); err != nil {
		t.Fatal(err)
	} else {
		sdb.Close()
	}
	if _, err := OpenSharded(single, 4); err == nil {
		t.Error("resharding a single-file store to 4 was accepted")
	}
}

// TestShardedCompact exercises parallel per-shard compaction: the logs
// shrink to the live state and replay to the same rows and indexes.
func TestShardedCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "extracted.db")
	db, err := OpenSharded(path, 4)
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
	fillAttrs(t, tbl, 30)
	// Deletes and updates bloat the logs with superseded records.
	for pk := int64(1); pk <= 30; pk += 3 {
		if err := tbl.Delete(Int(pk)); err != nil {
			t.Fatal(err)
		}
	}
	want := tbl.Len()
	before := db.LogSize()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if after := db.LogSize(); after >= before {
		t.Errorf("compact did not shrink logs: %d -> %d", before, after)
	}
	// Post-compact writes append to the new logs.
	if err := tbl.Insert(Row{Int(1000), Int(99), Str("age"), Str("x"), Float(40)}); err != nil {
		t.Fatal(err)
	}
	want++
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = OpenSharded(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.RecoveredWithLoss() {
		t.Error("compacted logs reported loss")
	}
	tbl, err = db.Table("extracted")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != want {
		t.Errorf("rows after compact+reopen = %d, want %d", tbl.Len(), want)
	}
	checkIndexConsistent(t, tbl)
}

// openFDs counts this process's open file descriptors (Linux).
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count fds: %v", err)
	}
	return len(ents)
}

// TestOpenErrorLeaksNoFDs pins the file-handle hygiene of the open
// path: when a multi-shard open fails partway (one shard's directory is
// corrupt), the shards that did open must be closed — no descriptor may
// leak. Same for the single-file open error path.
func TestOpenErrorLeaksNoFDs(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("relies on /proc/self/fd")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "extracted.db")
	db, err := OpenSharded(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillAttrs(t, tbl, 10)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the layout: replace one shard's directory with a file, so
	// shards 0-1 open fine and shard 2 fails.
	corrupt := filepath.Join(path, shardDirName(2))
	if err := os.RemoveAll(corrupt); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(corrupt, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	before := openFDs(t)
	for i := 0; i < 5; i++ {
		if _, err := OpenSharded(path, 0); err == nil {
			t.Fatal("open of corrupt shard layout succeeded")
		}
	}
	if after := openFDs(t); after > before {
		t.Errorf("open error path leaked fds: %d -> %d", before, after)
	}

	// Single-file variant: a path whose parent is missing fails without
	// ever opening anything; a path that is a directory full of junk
	// fails after Stat.
	for i := 0; i < 5; i++ {
		if _, err := Open(filepath.Join(dir, "missing", "x.db")); err == nil {
			t.Fatal("open under a missing parent succeeded")
		}
	}
	if after := openFDs(t); after > before {
		t.Errorf("single-file open error path leaked fds: %d -> %d", before, after)
	}
}

// TestShardIndexStability pins the routing function: a fixed key must
// map to the same shard forever (changing it would orphan every row of
// an existing store).
func TestShardIndexStability(t *testing.T) {
	if got := shardIndex(encodeKey(Int(1)), 1); got != 0 {
		t.Errorf("single shard must route to 0, got %d", got)
	}
	// Golden routing values for n=4, computed from FNV-1a of the key
	// encoding. If these change, on-disk stores mis-route.
	want := map[int64]int{1: 3, 2: 2, 3: 1, 4: 0, 5: 3, 100: 0, 101: 3}
	for pk, shard := range want {
		if got := shardIndex(encodeKey(Int(pk)), 4); got != shard {
			t.Errorf("shardIndex(Int(%d), 4) = %d, want %d", pk, got, shard)
		}
	}
}

// TestShardedDuplicateBatchAtomic verifies the cross-shard batch
// contract: a validation error (duplicate primary key) leaves every
// shard untouched.
func TestShardedDuplicateBatchAtomic(t *testing.T) {
	db := OpenMemorySharded(4)
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(Row{Int(7), Int(1), Str("pulse"), Str("x"), Float(60)}); err != nil {
		t.Fatal(err)
	}
	batch := []Row{
		{Int(1), Int(1), Str("pulse"), Str("x"), Float(61)},
		{Int(2), Int(1), Str("pulse"), Str("x"), Float(62)},
		{Int(7), Int(1), Str("pulse"), Str("x"), Float(63)}, // dup of existing
	}
	if err := tbl.InsertBatch(batch); err == nil {
		t.Fatal("duplicate batch accepted")
	}
	if tbl.Len() != 1 {
		t.Errorf("failed batch left %d rows, want 1 (validation must be all-or-nothing)", tbl.Len())
	}
	// In-batch duplicate, same shard by construction.
	if err := tbl.InsertBatch([]Row{
		{Int(9), Int(1), Str("pulse"), Str("x"), Float(61)},
		{Int(9), Int(1), Str("pulse"), Str("x"), Float(62)},
	}); err == nil {
		t.Fatal("in-batch duplicate accepted")
	}
	if tbl.Len() != 1 {
		t.Errorf("failed batch left %d rows, want 1", tbl.Len())
	}
}

// TestOpenRefusesNonDatabaseDir pins the layout guards: opening a
// directory that is not a database must never fabricate one inside it,
// and stray entries alongside real shard directories must not change
// the detected shard count.
func TestOpenRefusesNonDatabaseDir(t *testing.T) {
	// A directory with foreign content (e.g. a corpus dir, a typo'd
	// path) is refused for every shard count.
	foreign := t.TempDir()
	if err := os.WriteFile(filepath.Join(foreign, "patient001.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 4} {
		if _, err := OpenSharded(foreign, n); err == nil {
			t.Errorf("open(n=%d) fabricated a database in a foreign directory", n)
		}
	}
	if _, err := os.Stat(filepath.Join(foreign, shardDirName(0))); err == nil {
		t.Error("foreign directory was mutated")
	}

	// An empty pre-made directory initializes only with an explicit
	// shard count; auto-detect refuses it.
	empty := t.TempDir()
	if _, err := OpenSharded(empty, 0); err == nil {
		t.Error("auto-detect open fabricated a database in an empty directory")
	}
	db, err := OpenSharded(empty, 2)
	if err != nil {
		t.Fatalf("explicit shard count should initialize an empty directory: %v", err)
	}
	db.Close()

	// Stray entries that merely resemble shard names are ignored, not
	// counted: the 2-shard store still opens as 2 shards.
	for _, stray := range []string{"shard-000-backup", "shard-0001"} {
		if err := os.MkdirAll(filepath.Join(empty, stray), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	db, err = OpenSharded(empty, 0)
	if err != nil {
		t.Fatalf("stray entries broke reopen: %v", err)
	}
	if db.Shards() != 2 {
		t.Errorf("stray entries changed shard count: %d", db.Shards())
	}
	db.Close()
}

// TestMaxPK pins the id-allocation primitive: max over all shards,
// correct under lazy deletion (the rightmost B-tree leaf may be empty
// after deletes).
func TestMaxPK(t *testing.T) {
	for _, shards := range []int{1, 3} {
		db := OpenMemorySharded(shards)
		tbl, err := db.CreateTable(attrSchema())
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := tbl.MaxPK(); ok {
			t.Errorf("shards=%d: empty table reported a max pk", shards)
		}
		for id := int64(1); id <= 100; id++ {
			if err := tbl.Insert(Row{Int(id), Int(1), Str("pulse"), Str("x"), Float(60)}); err != nil {
				t.Fatal(err)
			}
		}
		if pk, ok := tbl.MaxPK(); !ok || pk.I != 100 {
			t.Errorf("shards=%d: MaxPK = %v,%v, want 100", shards, pk, ok)
		}
		// Delete the top half so the largest keys vanish from every
		// shard's rightmost leaves.
		for id := int64(51); id <= 100; id++ {
			if err := tbl.Delete(Int(id)); err != nil {
				t.Fatal(err)
			}
		}
		if pk, ok := tbl.MaxPK(); !ok || pk.I != 50 {
			t.Errorf("shards=%d: MaxPK after deletes = %v,%v, want 50", shards, pk, ok)
		}
	}
}

// TestShardedConcurrentIngestQuery runs parallel batch writers against
// parallel fan-out readers on a 4-shard WAL-backed store; under -race
// this pins the lock discipline of the partitioned table (readers take
// per-shard read locks, writers per-shard write locks, appends the
// shard's log mutex).
func TestShardedConcurrentIngestQuery(t *testing.T) {
	db, err := OpenSharded(filepath.Join(t.TempDir(), "conc.db"), 4)
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
	const writers, batches, perBatch = 4, 20, 16
	var next atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for bi := 0; bi < batches; bi++ {
				base := next.Add(perBatch) - perBatch
				batch := make([]Row, perBatch)
				for i := range batch {
					id := base + int64(i)
					batch[i] = Row{Int(id), Int(id % 9), Str("pulse"), Str("x"), Float(float64(60 + id%40))}
				}
				if err := tbl.InsertBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rows, stats, err := tbl.Query(Query{Preds: []Pred{Eq("attribute", Str("pulse"))}})
				if err != nil {
					t.Error(err)
					return
				}
				if stats.Shards != 4 {
					t.Errorf("fan-out width %d", stats.Shards)
					return
				}
				// Merged order must be ascending pk even mid-ingest.
				for i := 1; i < len(rows); i++ {
					if rows[i-1][0].I >= rows[i][0].I {
						t.Errorf("merge order broken at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if want := int64(writers * batches * perBatch); int64(tbl.Len()) != want {
		t.Errorf("rows = %d, want %d", tbl.Len(), want)
	}
	checkIndexConsistent(t, tbl)
}

func ExampleOpenSharded() {
	dir, _ := os.MkdirTemp("", "sharded")
	defer os.RemoveAll(dir)
	db, _ := OpenSharded(filepath.Join(dir, "extracted.db"), 4)
	defer db.Close()
	tbl, _ := db.CreateTable(attrSchema())
	_ = tbl.CreateIndex("attribute")
	_ = tbl.InsertBatch([]Row{
		{Int(1), Int(1), Str("pulse"), Str("x"), Float(84)},
		{Int(2), Int(2), Str("pulse"), Str("x"), Float(98)},
	})
	rows, stats, _ := tbl.Query(Query{Preds: []Pred{Eq("attribute", Str("pulse"))}})
	fmt.Printf("%d rows via %s across %d shards\n", len(rows), stats.Plan(), stats.Shards)
	// Output: 2 rows via index(attribute) across 4 shards
}
