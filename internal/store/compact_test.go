package store

import (
	"path/filepath"
	"sync"
	"testing"
)

func TestCompactShrinksLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable(testSchema())
	for i := 0; i < 200; i++ {
		if err := tbl.Insert(Row{Int(int64(i)), Str("n"), Str("p"), Float(0), Bool(true)}); err != nil {
			t.Fatal(err)
		}
	}
	before := db.LogSize()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	after := db.LogSize()
	if after >= before {
		t.Errorf("compaction did not shrink log: %d → %d", before, after)
	}
	// Data intact.
	if tbl.Len() != 200 {
		t.Fatalf("Len after compact = %d", tbl.Len())
	}
	// New writes must work post-compaction.
	if err := tbl.Insert(Row{Int(1000), Str("n"), Str("p"), Float(0), Bool(true)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: compacted log must replay to the same state.
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Health().RecoveredWithLoss {
		t.Error("compacted log reported loss")
	}
	tbl2, _ := db2.Table("concepts")
	if tbl2.Len() != 201 {
		t.Fatalf("recovered Len = %d, want 201", tbl2.Len())
	}
	for i := 0; i < 200; i++ {
		if _, err := tbl2.Get(Int(int64(i))); err != nil {
			t.Errorf("row %d lost in compaction", i)
		}
	}
}

func TestCompactInMemoryNoop(t *testing.T) {
	db := OpenMemory()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.LogSize() != 0 {
		t.Error("in-memory LogSize != 0")
	}
}

func TestCompactPreservesMultipleTables(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.db")
	db, _ := Open(path)
	s2 := testSchema()
	s2.Name = "second"
	t1, _ := db.CreateTable(testSchema())
	t2, _ := db.CreateTable(s2)
	t1.Insert(Row{Int(1), Str("a"), Str("b"), Float(0), Bool(true)})
	t2.Insert(Row{Int(2), Str("c"), Str("d"), Float(0), Bool(false)})
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if len(db2.tables) != 2 {
		t.Fatalf("tables after compact+reopen: %v", db2.tables)
	}
	r1, err := db2.Table("concepts")
	if err != nil || r1.Len() != 1 {
		t.Error("table one lost")
	}
	r2, err := db2.Table("second")
	if err != nil || r2.Len() != 1 {
		t.Error("table two lost")
	}
}

func TestConcurrentReadsDuringWrites(t *testing.T) {
	// The DB guards its table map with a RWMutex; tables themselves are
	// not concurrency-safe for mixed read/write, but concurrent reads on
	// a settled table must be safe.
	db := OpenMemory()
	tbl, _ := db.CreateTable(testSchema())
	for i := 0; i < 500; i++ {
		tbl.Insert(Row{Int(int64(i)), Str("n"), Str("p"), Float(0), Bool(true)})
	}
	tbl.CreateIndex("norm")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := tbl.Get(Int(int64((i * w) % 500))); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if _, err := tbl.Lookup("norm", Str("n")); err != nil {
					t.Errorf("Lookup: %v", err)
					return
				}
			}
		}(w + 1)
	}
	wg.Wait()
}
