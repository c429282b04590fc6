package store

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func testSchema() Schema {
	return Schema{
		Name: "concepts",
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "norm", Type: TString},
			{Name: "preferred", Type: TString},
			{Name: "score", Type: TFloat},
			{Name: "active", Type: TBool},
		},
		Primary: 0,
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	row := Row{Int(-42), Str("blood high pressure"), Str("hypertension"), Float(98.3), Bool(true)}
	buf := encodeRow(nil, row)
	got, err := decodeRow(buf, len(row))
	if err != nil {
		t.Fatal(err)
	}
	for i := range row {
		if !row[i].Equal(got[i]) {
			t.Errorf("col %d: %v != %v", i, row[i], got[i])
		}
	}
}

func TestRowCodecQuick(t *testing.T) {
	f := func(i int64, s1, s2 string, fl float64, b bool) bool {
		if math.IsNaN(fl) {
			fl = 0
		}
		row := Row{Int(i), Str(s1), Str(s2), Float(fl), Bool(b)}
		got, err := decodeRow(encodeRow(nil, row), len(row))
		if err != nil {
			return false
		}
		for j := range row {
			if !row[j].Equal(got[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRowCodecCorrupt(t *testing.T) {
	row := Row{Int(1), Str("x"), Str("y"), Float(1), Bool(true)}
	buf := encodeRow(nil, row)
	if _, err := decodeRow(buf[:len(buf)-1], len(row)); err == nil {
		t.Error("truncated row decoded without error")
	}
	if _, err := decodeRow(buf, len(row)-1); err == nil {
		t.Error("extra bytes accepted")
	}
	if _, err := decodeRow([]byte{99}, 1); err == nil {
		t.Error("bad type byte accepted")
	}
}

func TestTableCRUD(t *testing.T) {
	db := OpenMemory()
	tbl, err := db.CreateTable(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{Int(1), Str("blood high pressure"), Str("hypertension"), Float(1), Bool(true)},
		{Int(2), Str("cholecystectomy"), Str("cholecystectomy"), Float(1), Bool(true)},
		{Int(3), Str("cva postoperative"), Str("postoperative CVA"), Float(1), Bool(false)},
	}
	for _, r := range rows {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	if err := tbl.Insert(rows[0]); err == nil {
		t.Error("duplicate primary key accepted")
	}
	got, err := tbl.Get(Int(2))
	if err != nil || got[2].S != "cholecystectomy" {
		t.Fatalf("Get(2) = %v, %v", got, err)
	}
	if _, err := tbl.Get(Int(99)); err != ErrNotFound {
		t.Errorf("Get(99) err = %v", err)
	}
	if err := tbl.Delete(Int(3)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(Int(3)); err != ErrNotFound {
		t.Errorf("double delete err = %v", err)
	}
	if tbl.Len() != 2 {
		t.Fatalf("Len after delete = %d", tbl.Len())
	}
	// Type mismatch.
	bad := Row{Str("not-an-int"), Str("a"), Str("b"), Float(0), Bool(false)}
	if err := tbl.Insert(bad); err == nil {
		t.Error("type mismatch accepted")
	}
}

// TestLookupErrors pins Lookup's error contract on one shard and on
// four: an unindexed or unknown column is ErrNoIndex, a value of the
// wrong type is ErrTypeMism.
func TestLookupErrors(t *testing.T) {
	for _, n := range []int{1, 4} {
		db := OpenMemorySharded(n)
		tbl, _ := db.CreateTable(testSchema())
		if err := tbl.Insert(Row{Int(1), Str("a"), Str("p"), Float(0), Bool(true)}); err != nil {
			t.Fatal(err)
		}
		if err := tbl.CreateIndex("norm"); err != nil {
			t.Fatal(err)
		}
		for _, col := range []string{"preferred", "nope"} {
			if _, err := tbl.Lookup(col, Str("p")); !errors.Is(err, ErrNoIndex) {
				t.Errorf("%d shard(s): Lookup on %q = %v, want ErrNoIndex", n, col, err)
			}
		}
		if _, err := tbl.Lookup("norm", Int(1)); !errors.Is(err, ErrTypeMism) {
			t.Errorf("%d shard(s): Lookup with an int on a string column = %v, want ErrTypeMism", n, err)
		}
		db.Close()
	}
}

func TestSecondaryIndex(t *testing.T) {
	db := OpenMemory()
	tbl, _ := db.CreateTable(testSchema())
	for i := 0; i < 50; i++ {
		norm := "even"
		if i%2 == 1 {
			norm = "odd"
		}
		if err := tbl.Insert(Row{Int(int64(i)), Str(norm), Str("p"), Float(0), Bool(true)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CreateIndex("norm"); err != nil {
		t.Fatal(err)
	}
	odd, err := tbl.Lookup("norm", Str("odd"))
	if err != nil {
		t.Fatal(err)
	}
	if len(odd) != 25 {
		t.Fatalf("odd rows = %d, want 25", len(odd))
	}
	// Deterministic ascending-pk order.
	for i := 1; i < len(odd); i++ {
		if odd[i-1][0].I >= odd[i][0].I {
			t.Fatal("Lookup results not ordered by pk")
		}
	}
	none, err := tbl.Lookup("norm", Str("missing"))
	if err != nil || none != nil {
		t.Errorf("missing lookup = %v, %v", none, err)
	}
	if _, err := tbl.Lookup("preferred", Str("x")); err == nil {
		t.Error("lookup without index must fail")
	}
	if err := tbl.CreateIndex("nope"); err == nil {
		t.Error("index on missing column accepted")
	}
	// Index maintenance on delete.
	if err := tbl.Delete(Int(1)); err != nil {
		t.Fatal(err)
	}
	odd, _ = tbl.Lookup("norm", Str("odd"))
	if len(odd) != 24 {
		t.Fatalf("after delete odd rows = %d, want 24", len(odd))
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.db")

	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tbl.Insert(Row{Int(int64(i)), Str("n"), Str("p"), Float(float64(i)), Bool(i%2 == 0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Delete(Int(50)); err != nil {
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
	if db2.RecoveredWithLoss() {
		t.Error("clean close reported loss")
	}
	tbl2, err := db2.Table("concepts")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != 99 {
		t.Fatalf("recovered Len = %d, want 99", tbl2.Len())
	}
	if _, err := tbl2.Get(Int(50)); err != ErrNotFound {
		t.Error("deleted row resurrected")
	}
	if r, err := tbl2.Get(Int(42)); err != nil || r[3].F != 42 {
		t.Errorf("Get(42) = %v, %v", r, err)
	}
}

func TestCrashRecoveryTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crash.db")

	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable(testSchema())
	for i := 0; i < 20; i++ {
		tbl.Insert(Row{Int(int64(i)), Str("n"), Str("p"), Float(0), Bool(true)})
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: chop bytes off the tail.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !db2.RecoveredWithLoss() {
		t.Error("torn tail not reported")
	}
	tbl2, err := db2.Table("concepts")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != 19 {
		t.Fatalf("recovered Len = %d, want 19 (last record lost)", tbl2.Len())
	}
	// The DB must accept writes after recovery.
	if err := tbl2.Insert(Row{Int(100), Str("n"), Str("p"), Float(0), Bool(true)}); err != nil {
		t.Fatal(err)
	}
	db2.Sync()
}

func TestCrashRecoveryCorruptedRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corrupt.db")
	db, _ := Open(path)
	tbl, _ := db.CreateTable(testSchema())
	for i := 0; i < 10; i++ {
		tbl.Insert(Row{Int(int64(i)), Str("n"), Str("p"), Float(0), Bool(true)})
	}
	db.Close()

	raw, _ := os.ReadFile(path)
	raw[len(raw)-3] ^= 0xFF // flip a payload byte in the last record
	os.WriteFile(path, raw, 0o644)

	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !db2.RecoveredWithLoss() {
		t.Error("CRC corruption not detected")
	}
	tbl2, _ := db2.Table("concepts")
	if tbl2.Len() != 9 {
		t.Fatalf("recovered Len = %d, want 9", tbl2.Len())
	}
}

func TestScanAndSelect(t *testing.T) {
	db := OpenMemory()
	tbl, _ := db.CreateTable(testSchema())
	for i := 0; i < 30; i++ {
		tbl.Insert(Row{Int(int64(i)), Str("n"), Str("p"), Float(float64(i)), Bool(i < 10)})
	}
	var seen int
	tbl.Scan(func(r Row) bool { seen++; return true })
	if seen != 30 {
		t.Fatalf("Scan visited %d", seen)
	}
	active := tbl.Select(func(r Row) bool { return r[4].B })
	if len(active) != 10 {
		t.Fatalf("Select = %d rows", len(active))
	}
	ranged, st, err := tbl.Query(Query{Preds: []Pred{Ge("id", Int(5)), Lt("id", Int(15))}})
	if err != nil || len(ranged) != 10 || !st.FullScan {
		t.Fatalf("pk-bounded scan = %d rows (%+v, %v), want 10 by scan", len(ranged), st, err)
	}
}

func TestDBMisc(t *testing.T) {
	db := OpenMemory()
	if _, err := db.Table("missing"); err == nil {
		t.Error("missing table lookup")
	}
	if _, err := db.CreateTable(Schema{Name: "bad"}); err == nil {
		t.Error("invalid schema accepted")
	}
	db.CreateTable(testSchema())
	names := db.TableNames()
	if len(names) != 1 || names[0] != "concepts" {
		t.Errorf("TableNames = %v", names)
	}
	// Idempotent create.
	if _, err := db.CreateTable(testSchema()); err != nil {
		t.Error(err)
	}
	if err := db.Close(); err != nil {
		t.Error(err)
	}
	if err := db.Sync(); err != nil {
		t.Error(err)
	}
}

func TestColTypeString(t *testing.T) {
	for ct, want := range map[ColType]string{TInt: "INTEGER", TFloat: "REAL", TString: "TEXT", TBool: "BOOLEAN", ColType(0): "UNKNOWN"} {
		if got := ct.String(); got != want {
			t.Errorf("%d.String() = %q", ct, got)
		}
	}
	v := Value{}
	if v.String() != "<nil>" {
		t.Errorf("zero value String = %q", v.String())
	}
	if Int(1).Equal(Float(1)) {
		t.Error("cross-type Equal")
	}
}

func TestStats(t *testing.T) {
	db := OpenMemory()
	tbl, _ := db.CreateTable(testSchema())
	tbl.Insert(Row{Int(1), Str("a"), Str("p"), Float(0), Bool(true)})
	tbl.CreateIndex("norm")
	tbl.CreateIndex("preferred")
	s := tbl.Stats()
	if s.Rows != 1 || s.Indexes != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if len(s.IndexNames) != 2 || s.IndexNames[0] != "norm" {
		t.Errorf("index names = %v", s.IndexNames)
	}
}
