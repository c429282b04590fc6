package store

import (
	"os"
	"path/filepath"
	"testing"
)

// buildShardCrashFixture writes a 2-shard store: schema + index on both
// shards, a single insert, then one cross-shard batch. It returns the
// store directory and, per shard, the pks that were routed there.
func buildShardCrashFixture(t *testing.T, dir string) (path string, shardPKs [2][]int64) {
	t.Helper()
	path = filepath.Join(dir, "ref.db")
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
	rows := []Row{
		{Int(1), Int(1), Str("age"), Str("x"), Float(44)},
	}
	if err := tbl.Insert(rows[0]); err != nil {
		t.Fatal(err)
	}
	batch := []Row{
		{Int(2), Int(1), Str("pulse"), Str("x"), Float(84)},
		{Int(3), Int(2), Str("pulse"), Str("x"), Float(98)},
		{Int(4), Int(2), Str("smoking"), Str("current"), Float(0)},
		{Int(5), Int(3), Str("weight"), Str("x"), Float(61)},
		{Int(6), Int(3), Str("pulse"), Str("x"), Float(71)},
		{Int(7), Int(4), Str("weight"), Str("x"), Float(66)},
	}
	if err := tbl.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	for _, r := range append(rows, batch...) {
		si := shardIndex(encodeKey(r[0]), 2)
		shardPKs[si] = append(shardPKs[si], r[0].I)
	}
	// The batch must genuinely straddle both shards or the matrix
	// proves nothing.
	if len(shardPKs[0]) == 0 || len(shardPKs[1]) == 0 {
		t.Fatalf("fixture degenerate: shard pks %v", shardPKs)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return path, shardPKs
}

// TestCrashMatrixShardTruncation extends the crash matrix to the
// sharded layout: shard 1's WAL is truncated at every byte offset while
// shard 0's stays intact. For each cut, reopening must succeed, shard
// 0 must replay fully (its rows are never hostage to shard 1's crash),
// shard 1 must keep its all-or-nothing batch semantics, index == table
// must hold on every shard, and the recovered store must accept and
// retain new writes.
func TestCrashMatrixShardTruncation(t *testing.T) {
	dir := t.TempDir()
	refPath, shardPKs := buildShardCrashFixture(t, dir)
	wal0, err := os.ReadFile(filepath.Join(refPath, shardDirName(0), shardWALName))
	if err != nil {
		t.Fatal(err)
	}
	wal1, err := os.ReadFile(filepath.Join(refPath, shardDirName(1), shardWALName))
	if err != nil {
		t.Fatal(err)
	}

	// Row counts shard 1 can legally recover to: nothing (schema only),
	// the single insert if routed here, or additionally the full batch.
	single1 := 0
	if shardIndex(encodeKey(Int(1)), 2) == 1 {
		single1 = 1
	}
	batch1 := len(shardPKs[1]) - single1

	crash := filepath.Join(dir, "crash.db")
	for cut := 0; cut <= len(wal1); cut++ {
		if err := os.RemoveAll(crash); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := os.MkdirAll(filepath.Join(crash, shardDirName(i)), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(crash, shardDirName(0), shardWALName), wal0, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, shardDirName(1), shardWALName), wal1[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		db, err := OpenSharded(crash, 0)
		if err != nil {
			t.Fatalf("cut=%d: reopen failed: %v", cut, err)
		}
		tbl, err := db.Table("extracted")
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		// Shard 0 is untouched: every row routed to it must be present
		// whatever happened to shard 1.
		for _, pk := range shardPKs[0] {
			if _, err := tbl.Get(Int(pk)); err != nil {
				t.Errorf("cut=%d: shard-0 row %d lost to shard-1 crash", cut, pk)
			}
		}
		// Shard 1 recovers all-or-nothing per record.
		n1 := tbl.Len() - len(shardPKs[0])
		if n1 != 0 && n1 != single1 && n1 != single1+batch1 {
			t.Fatalf("cut=%d: shard-1 recovered %d rows — partial batch applied (want 0, %d or %d)",
				cut, n1, single1, single1+batch1)
		}
		checkIndexConsistent(t, tbl)

		// The recovered store accepts and retains new writes on both
		// shards.
		post := []Row{
			{Int(98), Int(9), Str("age"), Str("x"), Float(50)},
			{Int(99), Int(9), Str("age"), Str("x"), Float(51)},
		}
		preLen := tbl.Len()
		if err := tbl.InsertBatch(post); err != nil {
			t.Fatalf("cut=%d: post-recovery batch: %v", cut, err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db, err = OpenSharded(crash, 0)
		if err != nil {
			t.Fatalf("cut=%d: reopen after repair: %v", cut, err)
		}
		if db.Health().RecoveredWithLoss {
			t.Errorf("cut=%d: repaired logs still report loss", cut)
		}
		tbl, err = db.Table("extracted")
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if tbl.Len() != preLen+len(post) {
			t.Errorf("cut=%d: post-repair rows %d, want %d", cut, tbl.Len(), preLen+len(post))
		}
		checkIndexConsistent(t, tbl)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardTornCreateTableRepaired pins the open-time repair: a shard
// whose WAL lost the create-table/create-index tail to a crash is
// re-seeded from the surviving shards, so the inventory invariant
// ("every shard self-describes") holds after open and the repaired
// records are durable.
func TestShardTornCreateTableRepaired(t *testing.T) {
	dir := t.TempDir()
	refPath, _ := buildShardCrashFixture(t, dir)
	// Truncate shard 1 to nothing: it loses even its create-table
	// record.
	if err := os.WriteFile(filepath.Join(refPath, shardDirName(1), shardWALName), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := OpenSharded(refPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("extracted")
	if err != nil {
		t.Fatalf("table not repaired onto truncated shard: %v", err)
	}
	st := tbl.Stats()
	if st.Indexes != 1 {
		t.Errorf("index inventory not repaired: %+v", st)
	}
	// A write routed to the repaired shard must work and survive.
	if err := tbl.Insert(Row{Int(42), Int(9), Str("age"), Str("x"), Float(33)}); err != nil {
		t.Fatal(err)
	}
	want := tbl.Len()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = OpenSharded(refPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err = db.Table("extracted")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != want {
		t.Errorf("rows after repair+reopen = %d, want %d", tbl.Len(), want)
	}
	checkIndexConsistent(t, tbl)
}
