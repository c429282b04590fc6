package store

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestCrashMatrixBatchTruncation simulates a crash at every byte offset
// of the log, with special attention to the offsets inside the final
// opInsertBatch record. For each prefix, reopening must:
//
//   - succeed (a torn tail is truncated, never fatal),
//   - apply the batch all-or-nothing: either every batch row is present
//     or none is, never a partial batch,
//   - leave every secondary index holding exactly the table's rows, and
//   - accept new writes that survive another reopen.
func TestCrashMatrixBatchTruncation(t *testing.T) {
	// Build the reference log: schema, index, a base row, then one batch.
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.db")
	db, err := Open(refPath)
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
	if err := tbl.Insert(Row{Int(1), Int(1), Str("age"), Str("x"), Float(44)}); err != nil {
		t.Fatal(err)
	}
	preBatchLen := db.LogSize()
	batch := []Row{
		{Int(2), Int(1), Str("pulse"), Str("x"), Float(84)},
		{Int(3), Int(2), Str("pulse"), Str("x"), Float(98)},
		{Int(4), Int(2), Str("smoking"), Str("current"), Float(0)},
		{Int(5), Int(3), Str("weight"), Str("x"), Float(61)},
	}
	if err := tbl.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) <= preBatchLen {
		t.Fatalf("batch record not in log: %d <= %d", len(raw), preBatchLen)
	}

	// A cut at a record boundary yields a shorter but valid log —
	// indistinguishable from a clean shutdown, so no loss is reported.
	boundary := map[int]bool{0: true}
	for off := 0; off+8 <= len(raw); {
		n := int(uint32(raw[off])<<24 | uint32(raw[off+1])<<16 | uint32(raw[off+2])<<8 | uint32(raw[off+3]))
		off += 8 + n
		boundary[off] = true
	}

	for cut := 0; cut <= len(raw); cut++ {
		path := filepath.Join(dir, "crash.db")
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(path)
		if err != nil {
			t.Fatalf("cut=%d: reopen failed: %v", cut, err)
		}
		if cut < len(raw) && !boundary[cut] && !db.Health().RecoveredWithLoss {
			t.Errorf("cut=%d: torn log not reported as loss", cut)
		}
		if boundary[cut] && db.Health().RecoveredWithLoss {
			t.Errorf("cut=%d: clean prefix reported as loss", cut)
		}

		if len(db.tables) > 0 {
			tbl, err := db.Table("extracted")
			if err != nil {
				t.Fatalf("cut=%d: %v", cut, err)
			}
			// All-or-nothing: row count is 0 (schema only), 1 (base
			// insert applied) or 5 (batch applied in full). Any other
			// count means a partial batch leaked.
			n := tbl.Len()
			if n != 0 && n != 1 && n != 5 {
				t.Fatalf("cut=%d: %d rows — partial batch applied", cut, n)
			}
			if int64(cut) >= preBatchLen && n >= 1 {
				if _, err := tbl.Get(Int(1)); err != nil {
					t.Errorf("cut=%d: base row lost", cut)
				}
			}
			if n == 5 {
				for _, r := range batch {
					got, err := tbl.Get(r[0])
					if err != nil || !slices.Equal(got, r) {
						t.Fatalf("cut=%d: batch row %v corrupted: %v %v", cut, r[0], got, err)
					}
				}
			}
			checkIndexConsistent(t, tbl)

			// The recovered database must accept and retain new writes.
			if err := tbl.Insert(Row{Int(99), Int(9), Str("age"), Str("x"), Float(50)}); err != nil {
				t.Fatalf("cut=%d: post-recovery insert: %v", cut, err)
			}
			wantLen := n + 1
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db, err = Open(path)
			if err != nil {
				t.Fatalf("cut=%d: reopen after repair: %v", cut, err)
			}
			if db.Health().RecoveredWithLoss {
				t.Errorf("cut=%d: repaired log still reports loss", cut)
			}
			tbl, err = db.Table("extracted")
			if err != nil {
				t.Fatalf("cut=%d: %v", cut, err)
			}
			if tbl.Len() != wantLen {
				t.Errorf("cut=%d: post-repair rows %d, want %d", cut, tbl.Len(), wantLen)
			}
			checkIndexConsistent(t, tbl)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
