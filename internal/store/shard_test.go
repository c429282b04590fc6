package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
)

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
		{Preds: []Pred{Gt("numeric", Float(55))}},  // open-ended range
	}
	// Planner corners, each also checked against a full scan. Every one
	// is an index walk over a single indexed value, so the reference is
	// in primary-key order.
	refs := []struct {
		q   Query
		ref func(Row) bool
	}{
		{ // an equality whose value no row holds
			Query{Preds: []Pred{Eq("attribute", Str("temperature"))}},
			func(r Row) bool { return r[2].S == "temperature" },
		},
		{ // an equality plus a range on the same indexed column
			Query{Preds: []Pred{Lt("numeric", Float(90)), Eq("numeric", Float(80))}},
			func(r Row) bool { return r[4].F == 80 },
		},
		{ // two different equalities on one indexed column
			Query{Preds: []Pred{Eq("attribute", Str("pulse")), Eq("attribute", Str("smoking"))}},
			func(Row) bool { return false },
		},
		{ // an indexed equality with a residual filter
			Query{Preds: []Pred{Eq("attribute", Str("smoking")), Eq("value", Str("current"))}},
			func(r Row) bool { return r[2].S == "smoking" && r[3].S == "current" },
		},
	}
	for _, c := range refs {
		queries = append(queries, c.q)
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
			if !slices.Equal(got[i], want[i]) {
				t.Errorf("query %d row %d: %v != %v", qi, i, got[i], want[i])
			}
		}
		if wantStats.Shards != 1 || gotStats.Shards != 4 {
			t.Errorf("query %d: shard stats %d/%d, want 1/4", qi, wantStats.Shards, gotStats.Shards)
		}
		if gotStats.UsedIndex != wantStats.UsedIndex || gotStats.FullScan != wantStats.FullScan {
			t.Errorf("query %d: plans diverge: single %+v sharded %+v", qi, wantStats, gotStats)
		}
		if ri := qi - (len(queries) - len(refs)); ri >= 0 {
			ref := scanWhere(t, st, refs[ri].ref)
			if !wantStats.UsedIndex || len(want) != len(ref) {
				t.Fatalf("query %d: %d rows (index %v), scan reference has %d", qi, len(want), wantStats.UsedIndex, len(ref))
			}
			for i := range ref {
				if !slices.Equal(want[i], ref[i]) {
					t.Errorf("query %d row %d: %v, scan reference %v", qi, i, want[i], ref[i])
				}
			}
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
			if !slices.Equal(got[i], want[i]) {
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
		if !slices.Equal(gotScan[i], wantScan[i]) {
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
		n := ts.rows()
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
	if db.Health().RecoveredWithLoss {
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
// shrink to schema and index records and replay to the same rows and
// indexes.
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
	if db.Health().RecoveredWithLoss {
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
// contract: on a 4-shard store with runs, memtable rows and two
// indexes, a batch of fresh keys on three shards that carries bad keys
// for the fourth — a duplicate of a stored key, a key in a gap below
// the shard's last key, or a pair that goes backwards or repeats inside
// the batch — is refused with ErrKeyOrder, and every shard's rows, log
// size and indexes are as they were. A fresh batch is then accepted.
func TestShardedDuplicateBatchAtomic(t *testing.T) {
	const shards = 4
	db, err := OpenSharded(filepath.Join(t.TempDir(), "refuse.db"), shards)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"attribute", "patient"} {
		if err := tbl.CreateIndex(col); err != nil {
			t.Fatal(err)
		}
	}
	row := func(id int64) Row { return Row{Int(id), Int(id % 11), Str("pulse"), Str("x"), Float(float64(id))} }
	// Even ids 2..1200: half flushed into runs, half in the memtables.
	insertEven := func(lo, hi int64) {
		t.Helper()
		var rows []Row
		for id := lo; id <= hi; id += 2 {
			rows = append(rows, row(id))
		}
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
	}
	insertEven(2, 600)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	insertEven(602, 1200)
	before := captureShardStates(t, tbl)

	for victim := 0; victim < shards; victim++ {
		gap := keyOn(3, victim, shards)
		for gap%2 == 0 { // an odd id: never stored, below the shard's last key
			gap = keyOn(gap+1, victim, shards)
		}
		stored := keyOn(500, victim, shards)
		for stored%2 != 0 {
			stored = keyOn(stored+1, victim, shards)
		}
		hi, lo := keyOn(5000, victim, shards), keyOn(2000, victim, shards)
		for name, bad := range map[string][]Row{
			"duplicate":       {row(stored)},
			"gap below":       {row(gap)},
			"backwards":       {row(hi), row(lo)},
			"batch duplicate": {row(hi), row(hi)},
		} {
			batch := []Row{}
			for si := 0; si < shards; si++ { // fresh keys on every other shard
				if si != victim {
					batch = append(batch, row(keyOn(3000, si, shards)))
				}
			}
			batch = append(batch, bad...)
			if err := tbl.InsertBatch(batch); !errors.Is(err, ErrKeyOrder) {
				t.Fatalf("shard %d %s: err = %v, want ErrKeyOrder", victim, name, err)
			}
			after := captureShardStates(t, tbl)
			for si := range after {
				b, a := before[si], after[si]
				if a.logSize != b.logSize {
					t.Fatalf("shard %d %s: shard %d log %d → %d bytes", victim, name, si, b.logSize, a.logSize)
				}
				if len(a.rows) != len(b.rows) {
					t.Fatalf("shard %d %s: shard %d rows %d → %d", victim, name, si, len(b.rows), len(a.rows))
				}
				for i := range a.rows {
					if !slices.Equal(a.rows[i], b.rows[i]) {
						t.Fatalf("shard %d %s: shard %d row %d changed", victim, name, si, i)
					}
				}
				for col, want := range b.indexes {
					if a.indexes[col] != want {
						t.Fatalf("shard %d %s: shard %d index %s changed", victim, name, si, col)
					}
				}
			}
		}
	}
	var fresh []Row
	for id := int64(1201); id <= 1300; id++ {
		fresh = append(fresh, row(id))
	}
	if err := tbl.InsertBatch(fresh); err != nil {
		t.Fatalf("fresh ascending batch after the refusals: %v", err)
	}
	checkIndexConsistent(t, tbl)
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
// whatever the insert order. On WAL-backed stores it must equal the
// last row of a full merge across flushed run stacks whose newest run
// is not the largest, a memtable key below and above the runs, Flush,
// Compact, reopen and a randomized history, while reading at most one
// block per shard of a flushed table and none when the memtable holds
// the maximum.
func TestMaxPK(t *testing.T) {
	for _, shards := range []int{1, 3} {
		db := OpenMemorySharded(shards)
		tbl, err := db.CreateTable(attrSchema())
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := tbl.MaxPK(); ok || err != nil {
			t.Errorf("shards=%d: empty table reported a max pk (err %v)", shards, err)
		}
		// Sparse ascending ids: each shard's maximum is its memtable's
		// last row, and the table's is the largest of those.
		id := int64(0)
		for i := 0; i < 100; i++ {
			id += 1 + int64(i%5)
			if err := tbl.Insert(Row{Int(id), Int(1), Str("pulse"), Str("x"), Float(60)}); err != nil {
				t.Fatal(err)
			}
			if pk, ok, err := tbl.MaxPK(); !ok || err != nil || pk.I != id {
				t.Fatalf("shards=%d: MaxPK = %v,%v,%v, want %d", shards, pk, ok, err, id)
			}
		}
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("segments/shards=%d", shards), func(t *testing.T) {
			testMaxPKSegments(t, shards)
		})
	}
	t.Run("reads only run tails", testMaxPKReadsOnlyRunTails)
}

// mergedMaxPK is MaxPK's reference answer: the last row of a full
// merged scan.
func mergedMaxPK(t *testing.T, tbl *Table) (int64, bool) {
	t.Helper()
	var last Row
	if err := tbl.Scan(func(r Row) bool { last = r; return true }); err != nil {
		t.Fatal(err)
	}
	if last == nil {
		return 0, false
	}
	return last[0].I, true
}

func testMaxPKSegments(t *testing.T, shards int) {
	path := filepath.Join(t.TempDir(), "maxpk.db")
	db, err := OpenSharded(path, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string, want int64) {
		t.Helper()
		ref, refOK := mergedMaxPK(t, tbl)
		got, ok, err := tbl.MaxPK()
		if err != nil {
			t.Fatalf("%s: MaxPK: %v", stage, err)
		}
		if ok != refOK || (ok && got.I != ref) {
			t.Fatalf("%s: MaxPK = %v,%v, merge says %d,%v", stage, got, ok, ref, refOK)
		}
		if want >= 0 && got.I != want {
			t.Fatalf("%s: MaxPK = %d, want %d", stage, got.I, want)
		}
	}
	insert := func(lo, hi int64) {
		t.Helper()
		var rows []Row
		for id := lo; id <= hi; id++ {
			rows = append(rows, Row{Int(id), Int(id % 7), Str("pulse"), Str("x"), Float(60)})
		}
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
	}
	flush := func() {
		t.Helper()
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	if _, ok, err := tbl.MaxPK(); ok || err != nil {
		t.Fatalf("empty table: MaxPK ok=%v err=%v", ok, err)
	}
	// A stack of three flushed runs, a few blocks each per shard.
	insert(1, 1200)
	flush()
	insert(1201, 2400)
	flush()
	insert(2401, 3600)
	flush()
	check("run stack", 3600)
	if err := tbl.Insert(Row{Int(0), Int(0), Str("pulse"), Str("x"), Float(60)}); !errors.Is(err, ErrKeyOrder) {
		t.Fatalf("key below the runs: %v, want ErrKeyOrder", err)
	}
	check("key below the runs refused", 3600)
	insert(4000, 4000)
	check("memtable key above the runs", 4000)
	flush()
	check("memtable key flushed", 4000)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	check("after Compact", 4000)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = OpenSharded(path, shards); err != nil {
		t.Fatal(err)
	}
	if tbl, err = db.Table("extracted"); err != nil {
		t.Fatal(err)
	}
	check("after reopen", 4000)

	// Randomized cross-check: inserts of ascending keys with random
	// gaps, flushes and majors, against the merge after each step.
	rng := rand.New(rand.NewSource(int64(shards)))
	next := int64(4001)
	for step := 0; step < 300; step++ {
		switch op := rng.Intn(10); {
		case op < 6:
			lo := next + int64(rng.Intn(40))
			hi := lo + int64(rng.Intn(20))
			insert(lo, hi)
			next = hi + 1
		case op < 8:
			flush()
		default:
			if step%3 == 0 {
				if err := db.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}
		check(fmt.Sprintf("random step %d", step), -1)
	}
}

// testMaxPKReadsOnlyRunTails pins MaxPK's cost, counted by the block
// cache's hits plus misses: on a flushed 4-run table with an empty
// memtable it reads at most one block per shard, where a merge of the
// whole table reads every block, and once the memtable holds the
// largest key it reads none.
func testMaxPKReadsOnlyRunTails(t *testing.T) {
	const shards = 4
	db, err := OpenSharded(filepath.Join(t.TempDir(), "tails.db"), shards)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	id := int64(0)
	for r := 0; r < 4; r++ {
		rows := make([]Row, 0, 4096)
		for i := 0; i < 4096; i++ {
			id++
			rows = append(rows, Row{Int(id), Int(id % 7), Str("pulse"), Str("x"), Float(60)})
		}
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	blocks := 0
	for _, ts := range tbl.shards {
		for _, sg := range ts.segs {
			blocks += len(sg.blocks)
		}
	}
	before := db.BlockCacheStats()
	pk, ok, err := tbl.MaxPK()
	if err != nil || !ok || pk.I != id {
		t.Fatalf("MaxPK = %v,%v,%v, want %d", pk, ok, err, id)
	}
	after := db.BlockCacheStats()
	if reads := (after.Hits + after.Misses) - (before.Hits + before.Misses); reads > shards {
		t.Fatalf("MaxPK read %d blocks of %d; want at most one per shard (%d)", reads, blocks, shards)
	}
	// Keys above every run, in every shard's memtable.
	rows := make([]Row, 0, 64)
	for i := 0; i < 64; i++ {
		id++
		rows = append(rows, Row{Int(id), Int(id % 7), Str("pulse"), Str("x"), Float(60)})
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	for i, ts := range tbl.shards {
		if len(ts.mem) == 0 {
			t.Fatalf("shard %d got none of the 64 new keys", i)
		}
	}
	before = db.BlockCacheStats()
	if pk, ok, err := tbl.MaxPK(); err != nil || !ok || pk.I != id {
		t.Fatalf("MaxPK = %v,%v,%v, want the memtable's %d", pk, ok, err, id)
	}
	after = db.BlockCacheStats()
	if reads := (after.Hits + after.Misses) - (before.Hits + before.Misses); reads != 0 {
		t.Fatalf("MaxPK read %d blocks with every shard's maximum in its memtable; want none", reads)
	}
}

// TestShardedConcurrentIngestQuery runs concurrent batch writers
// against parallel fan-out readers on a 4-shard WAL-backed store; under
// -race this pins the lock discipline of the partitioned table (readers
// take per-shard read locks, writers per-shard write locks, appends the
// shard's log mutex). The writers act as one logical writer, as
// core.Ingester does: each allocates its batch's ids and inserts it
// under one lock, and the batch's per-shard sub-batches log and apply
// in parallel.
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
	var (
		writeMu sync.Mutex
		next    int64
	)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for bi := 0; bi < batches; bi++ {
				writeMu.Lock()
				batch := make([]Row, perBatch)
				for i := range batch {
					id := next + int64(i)
					batch[i] = Row{Int(id), Int(id % 9), Str("pulse"), Str("x"), Float(float64(60 + id%40))}
				}
				err := tbl.InsertBatch(batch)
				next += perBatch
				writeMu.Unlock()
				if err != nil {
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
