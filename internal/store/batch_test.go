package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func batchSchema() Schema {
	return Schema{
		Name: "t",
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "val", Type: TString},
		},
		Primary: 0,
	}
}

func batchRows(from, n int) []Row {
	rows := make([]Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, Row{Int(int64(from + i)), Str("v")})
	}
	return rows
}

func TestInsertBatchDurableAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(batchSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertBatch(batchRows(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Health().RecoveredWithLoss {
		t.Error("clean close reported loss")
	}
	tbl2, err := db2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != 100 {
		t.Fatalf("reopened table has %d rows, want 100", tbl2.Len())
	}
	row, err := tbl2.Get(Int(42))
	if err != nil || row[1].S != "v" {
		t.Fatalf("Get(42) = %v, %v", row, err)
	}
}

func TestInsertBatchTruncatedTailDropsWholeBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(batchSchema())
	if err != nil {
		t.Fatal(err)
	}
	// One single insert (must survive), then a batch whose WAL record we
	// tear mid-write to simulate a crash.
	if err := tbl.Insert(Row{Int(1), Str("v")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	intact, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertBatch(batchRows(2, 50)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Cut the batch record short: keep the intact prefix plus half of
	// whatever the batch appended.
	full, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := intact.Size() + (full.Size()-intact.Size())/2
	if err := os.Truncate(path, torn); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !db2.Health().RecoveredWithLoss {
		t.Error("torn batch tail not reported as loss")
	}
	tbl2, err := db2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	// Atomicity: the torn batch vanishes entirely; the earlier insert
	// survives.
	if tbl2.Len() != 1 {
		t.Fatalf("recovered table has %d rows, want 1 (whole batch dropped)", tbl2.Len())
	}
	if _, err := tbl2.Get(Int(1)); err != nil {
		t.Errorf("pre-batch row lost: %v", err)
	}
	if _, err := tbl2.Get(Int(2)); !errors.Is(err, ErrNotFound) {
		t.Errorf("first batch row survived a torn batch: %v", err)
	}
}

func TestInsertBatchEquivalentToSingles(t *testing.T) {
	a := OpenMemory()
	ta, err := a.CreateTable(batchSchema())
	if err != nil {
		t.Fatal(err)
	}
	b := OpenMemory()
	tb, err := b.CreateTable(batchSchema())
	if err != nil {
		t.Fatal(err)
	}
	rows := batchRows(1, 37)
	for _, r := range rows {
		if err := ta.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	if ta.Len() != tb.Len() {
		t.Fatalf("lengths differ: %d vs %d", ta.Len(), tb.Len())
	}
	var got []Row
	tb.Scan(func(r Row) bool { got = append(got, r); return true })
	i := 0
	ta.Scan(func(r Row) bool {
		for c := range r {
			if r[c] != got[i][c] {
				t.Errorf("row %d col %d: %v != %v", i, c, r[c], got[i][c])
			}
		}
		i++
		return true
	})
}

func TestInsertBatchAllOrNothingOnDuplicate(t *testing.T) {
	db := OpenMemory()
	tbl, err := db.CreateTable(batchSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(Row{Int(5), Str("v")}); err != nil {
		t.Fatal(err)
	}
	// A batch colliding with an existing row, one starting below it, and
	// one with an internal duplicate: each key is not above every key
	// the (single) shard holds, and each batch is refused whole.
	for _, bad := range [][]Row{
		batchRows(5, 3),
		batchRows(4, 3),
		{{Int(10), Str("v")}, {Int(10), Str("v")}},
	} {
		if err := tbl.InsertBatch(bad); !errors.Is(err, ErrKeyOrder) {
			t.Fatalf("batch from %v: err = %v, want ErrKeyOrder", bad[0][0], err)
		}
		if tbl.Len() != 1 {
			t.Fatalf("failed batch left %d rows, want 1", tbl.Len())
		}
	}
	// Empty batch is a no-op.
	if err := tbl.InsertBatch(nil); err != nil {
		t.Fatal(err)
	}
}
