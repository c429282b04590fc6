package store

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"testing"
)

// attrSchema mirrors the warehouse's extracted table: one row per
// (patient, attribute, value).
func attrSchema() Schema {
	return Schema{
		Name: "extracted",
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "patient", Type: TInt},
			{Name: "attribute", Type: TString},
			{Name: "value", Type: TString},
			{Name: "numeric", Type: TFloat},
		},
		Primary: 0,
	}
}

// fillAttrs inserts n patients with a pulse, a smoking status and a
// weight row each.
func fillAttrs(t *testing.T, tbl *Table, n int) {
	t.Helper()
	var rows []Row
	id := int64(1)
	for p := 1; p <= n; p++ {
		smoking := "never"
		if p%3 == 0 {
			smoking = "current"
		}
		rows = append(rows,
			Row{Int(id), Int(int64(p)), Str("pulse"), Str("x"), Float(float64(60 + p%60))},
			Row{Int(id + 1), Int(int64(p)), Str("smoking"), Str(smoking), Float(0)},
			Row{Int(id + 2), Int(int64(p)), Str("weight"), Str("x"), Float(float64(50 + p%50))},
		)
		id += 3
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
}

func TestQueryEqualityUsesIndexNoFullScan(t *testing.T) {
	db := OpenMemory()
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillAttrs(t, tbl, 90)
	if err := tbl.CreateIndex("attribute"); err != nil {
		t.Fatal(err)
	}

	rows, stats, err := tbl.Query(Query{Preds: []Pred{
		Eq("attribute", Str("smoking")),
		Eq("value", Str("current")),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 30 {
		t.Fatalf("got %d rows, want 30", len(rows))
	}
	// The probe counter is the no-full-scan proof: one index probe, and
	// only the posting list's rows were examined — not the whole table.
	if !stats.UsedIndex || stats.FullScan {
		t.Fatalf("expected index path, got %+v", stats)
	}
	if stats.IndexCol != "attribute" || stats.IndexProbes != 1 {
		t.Errorf("expected 1 probe on attribute, got %+v", stats)
	}
	if stats.RowsExamined != 90 { // 90 smoking rows, not 270 total rows
		t.Errorf("RowsExamined = %d, want 90 (table has %d)", stats.RowsExamined, tbl.Len())
	}

	// A value no row holds visits no posting and examines no row.
	rows, stats, err = tbl.Query(Query{Preds: []Pred{Eq("attribute", Str("temperature"))}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 || !stats.UsedIndex || stats.FullScan || stats.IndexProbes != 0 || stats.RowsExamined != 0 {
		t.Errorf("miss: %d rows, stats %+v; want an index plan with 0 probes and 0 rows examined", len(rows), stats)
	}
}

func TestQueryRangeUsesIndex(t *testing.T) {
	db := OpenMemory()
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillAttrs(t, tbl, 60)
	if err := tbl.CreateIndex("numeric"); err != nil {
		t.Fatal(err)
	}

	rows, stats, err := tbl.Query(Query{Preds: []Pred{
		Gt("numeric", Float(100)),
		Le("numeric", Float(110)),
		Eq("attribute", Str("pulse")),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.UsedIndex || stats.FullScan || stats.IndexCol != "numeric" {
		t.Fatalf("expected numeric index walk, got %+v", stats)
	}
	if len(rows) == 0 {
		t.Fatal("expected matches")
	}
	for _, r := range rows {
		if r[2].S != "pulse" || r[4].F <= 100 || r[4].F > 110 {
			t.Errorf("row violates predicates: %v", r)
		}
	}
	// Verify against the scan fallback.
	want := scanWhere(t, tbl, func(r Row) bool {
		return r[2].S == "pulse" && r[4].F > 100 && r[4].F <= 110
	})
	if len(rows) != len(want) {
		t.Errorf("index path returned %d rows, scan %d", len(rows), len(want))
	}
}

func TestQueryScanFallback(t *testing.T) {
	db := OpenMemory()
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillAttrs(t, tbl, 30)

	rows, stats, err := tbl.Query(Query{Preds: []Pred{Eq("attribute", Str("pulse"))}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.UsedIndex || !stats.FullScan {
		t.Fatalf("expected scan fallback, got %+v", stats)
	}
	if len(rows) != 30 || stats.RowsExamined != tbl.Len() {
		t.Errorf("rows=%d examined=%d want 30/%d", len(rows), stats.RowsExamined, tbl.Len())
	}
	if stats.Plan() != "scan" {
		t.Errorf("Plan() = %q", stats.Plan())
	}
}

func TestQueryLimitAndErrors(t *testing.T) {
	db := OpenMemory()
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillAttrs(t, tbl, 30)
	if err := tbl.CreateIndex("attribute"); err != nil {
		t.Fatal(err)
	}

	rows, _, err := tbl.Query(Query{Preds: []Pred{Eq("attribute", Str("pulse"))}})
	if err != nil || len(rows) != 30 {
		t.Fatalf("equality: got %d rows, err %v; want every one of the 30 pulse rows", len(rows), err)
	}
	for i, r := range rows {
		if r[2].S != "pulse" || (i > 0 && r[0].I <= rows[i-1][0].I) {
			t.Fatalf("row %d = %v: want pulse rows in ascending id order", i, r)
		}
	}
	if _, _, err := tbl.Query(Query{Preds: []Pred{Eq("nope", Str("x"))}}); err == nil {
		t.Error("unknown column accepted")
	}
	if _, _, err := tbl.Query(Query{Preds: []Pred{Eq("attribute", Int(1))}}); err == nil {
		t.Error("type mismatch accepted")
	}
	if _, _, err := tbl.Query(Query{Preds: []Pred{{Col: "attribute", Op: 99, V: Str("x")}}}); err == nil {
		t.Error("bad operator accepted")
	}
}

func TestQueryEmptyPredsReturnsAll(t *testing.T) {
	db := OpenMemory()
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillAttrs(t, tbl, 10)
	rows, stats, err := tbl.Query(Query{})
	if err != nil || len(rows) != 30 || !stats.FullScan {
		t.Fatalf("got %d rows, stats %+v, err %v", len(rows), stats, err)
	}
}

// TestIndexSurvivesReopen pins the durability half of the tentpole: an
// index created before a reopen exists after replay, stays maintained,
// and equals the table contents.
func TestIndexSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.db")
	db, err := Open(path)
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
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err = db.Table("extracted")
	if err != nil {
		t.Fatal(err)
	}
	st := tbl.Stats()
	if st.Indexes != 1 || st.IndexNames[0] != "attribute" {
		t.Fatalf("index lost across reopen: %+v", st)
	}
	_, stats, err := tbl.Query(Query{Preds: []Pred{Eq("attribute", Str("pulse"))}})
	if err != nil || !stats.UsedIndex {
		t.Fatalf("reopened query did not use index: %+v err %v", stats, err)
	}
	checkIndexConsistent(t, tbl)

	// The replayed index must stay maintained by new writes.
	if err := tbl.Insert(Row{Int(10_000), Int(999), Str("pulse"), Str("x"), Float(70)}); err != nil {
		t.Fatal(err)
	}
	rows, _, err := tbl.Query(Query{Preds: []Pred{Eq("attribute", Str("pulse"))}})
	if err != nil || len(rows) != 21 {
		t.Fatalf("post-reopen insert not indexed: %d rows, err %v", len(rows), err)
	}
}

// TestIndexSurvivesCompact: Compact rewrites the log; indexes must be in
// the rewritten state.
func TestIndexSurvivesCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillAttrs(t, tbl, 20)
	if err := tbl.CreateIndex("attribute"); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Health().RecoveredWithLoss {
		t.Fatal("compacted log reported loss")
	}
	tbl, err = db.Table("extracted")
	if err != nil {
		t.Fatal(err)
	}
	if st := tbl.Stats(); st.Indexes != 1 {
		t.Fatalf("index lost across compact+reopen: %+v", st)
	}
	if tbl.Len() != 60 {
		t.Fatalf("row count after compact+reopen = %d, want 60", tbl.Len())
	}
	checkIndexConsistent(t, tbl)
}

// TestPostingKeySlack: a new patient's rows arrive in one batch, so the
// patient posting's stream grows one entry at a time from empty.
// Append's doubling would leave it about half empty; growth by a
// quarter keeps the index's total stream capacity within 1.3× its
// length live, and the open-time build, which doubles, trims every
// stream once it ends, so the bound holds after a reopen rebuilds the
// index from a run and the WAL.
func TestPostingKeySlack(t *testing.T) {
	const patients, rowsPer = 200, 17
	path := filepath.Join(t.TempDir(), "w.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("patient"); err != nil {
		t.Fatal(err)
	}
	id := int64(0)
	for p := 0; p < patients; p++ {
		batch := make([]Row, rowsPer)
		for i := range batch {
			id++
			batch[i] = Row{Int(id), Int(int64(p)), Str("pulse"), Str("v"), Float(0)}
		}
		if err := tbl.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		if p == patients/2 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(when string, tbl *Table) {
		t.Helper()
		entries, length, capacity := 0, 0, 0
		for _, ts := range tbl.shards {
			ts.mu.RLock()
			ts.secondary["patient"].tree.AscendRange("", "", func(_ string, v interface{}) bool {
				pl := v.(*postingList)
				entries += pl.n
				length += len(pl.stream)
				capacity += cap(pl.stream)
				return true
			})
			ts.mu.RUnlock()
		}
		if entries != patients*rowsPer {
			t.Fatalf("%s: patient index holds %d entries, want %d", when, entries, patients*rowsPer)
		}
		if ratio := float64(capacity) / float64(length); ratio > 1.3 {
			t.Errorf("%s: patient index streams hold %d bytes of capacity for %d bytes (%.2f×), want ≤ 1.3×", when, capacity, length, ratio)
		}
	}
	check("live", tbl)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if tbl, err = db.Table("extracted"); err != nil {
		t.Fatal(err)
	}
	check("after reopen", tbl)
	checkIndexConsistent(t, tbl)
}

// checkIndexConsistent asserts every secondary index holds exactly the
// table's rows on every shard — the crash invariant "index == table
// contents", which sharding makes per-shard — with every posting
// entry's primary key and included values equal to its row's, that
// keys ascend on every shard (runs non-empty, disjoint and ascending,
// the memtable above them and ascending), and that no key is stored
// twice: the memtable and the runs together hold the rows the shard's
// view yields.
func checkIndexConsistent(t testing.TB, tbl *Table) {
	t.Helper()
	for _, ts := range tbl.shards {
		checkShardIndexConsistent(t, ts)
	}
}

func checkShardIndexConsistent(t testing.TB, ts *tableShard) {
	t.Helper()
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	last := ""
	for _, sg := range ts.segs {
		if sg.nRows == 0 || sg.minKey <= last {
			t.Errorf("shard %d: run %s (%d rows) is empty or not above the runs before it", ts.shard.id, sg.path, sg.nRows)
		}
		last = sg.maxKey
	}
	for _, mr := range ts.mem {
		if mr.key <= last {
			t.Errorf("shard %d: memtable key %q not above the key before it", ts.shard.id, mr.key)
		}
		last = mr.key
	}
	// Materialize the shard's view — runs then memtable — which is what
	// the indexes must mirror exactly.
	live := make(map[string]Row)
	ss := ts.captureLocked()
	defer ss.release()
	pkc := ts.schema.Primary
	if err := ss.iterate("", "", nil, func(pk string, row Row) bool {
		if pk != encodeKey(row[pkc]) {
			t.Errorf("shard %d: iterate key %q is not row %v's key", ts.shard.id, pk, row[pkc])
		}
		live[pk] = row
		return true
	}); err != nil {
		t.Fatalf("shard %d: iterate: %v", ts.shard.id, err)
	}
	if len(live) != ts.rows() {
		t.Errorf("shard %d: memtable + runs hold %d rows, the view has %d distinct keys", ts.shard.id, ts.rows(), len(live))
	}
	for col, ix := range ts.secondary {
		// Every entry is a live row filed under its column value, with
		// its primary key and included values byte for byte, keys
		// strictly ascending within the posting; as many entries as live
		// rows then means every live row is filed exactly once. The side
		// list is the memtable rows of the stream's suffix, and the side
		// lists hold every memtable row. The posting's rows as a query
		// reads them — covered or resolved — are the live rows.
		indexed, inMem := 0, 0
		ix.tree.AscendRange("", "", func(sk string, v interface{}) bool {
			pl := v.(*postingList)
			indexed += pl.n
			inMem += len(pl.mem)
			if len(pl.mem) > pl.n {
				t.Errorf("shard %d: index %s side list longer than its stream", ts.shard.id, col)
				return true
			}
			var want []Row
			stream, prev := pl.stream, ""
			for i := 0; i < pl.n; i++ {
				pk, _, err := decodeValue(stream)
				if err != nil {
					t.Errorf("shard %d: index %s stream entry %d: %v", ts.shard.id, col, i, err)
					return true
				}
				key := encodeKey(pk)
				row, ok := live[key]
				if !ok || key <= prev || encodeKey(row[ix.col]) != sk {
					t.Errorf("shard %d: index %s entry pk %v is absent, out of order or filed under the wrong value", ts.shard.id, col, pk)
					return true
				}
				prev = key
				var entry []byte
				for _, c := range ix.cols {
					entry = appendValue(entry, row[c])
				}
				if !bytes.HasPrefix(stream, entry) {
					t.Errorf("shard %d: index %s entry for pk %v does not hold its row's included values", ts.shard.id, col, pk)
					return true
				}
				stream = stream[len(entry):]
				if m := i - (pl.n - len(pl.mem)); m >= 0 && !slices.Equal(pl.mem[m], row) {
					t.Errorf("shard %d: index %s side-list row %v is not the memtable's row for its key", ts.shard.id, col, pk)
				}
				want = append(want, row)
			}
			if len(stream) != 0 {
				t.Errorf("shard %d: index %s stream holds %d bytes past its %d entries", ts.shard.id, col, len(stream), pl.n)
			}
			got, err := ts.postingRows(ix, sk, pl, nil, func(Row) bool { return true }, nil)
			if err != nil {
				t.Errorf("shard %d: index %s posting rows: %v", ts.shard.id, col, err)
			} else if !rowsIdentical(got, want) {
				t.Errorf("shard %d: index %s posting rows differ from the live rows", ts.shard.id, col)
			}
			return true
		})
		if indexed != len(live) {
			t.Errorf("shard %d: index %s holds %d rows, table has %d", ts.shard.id, col, indexed, len(live))
		}
		if inMem != len(ts.mem) {
			t.Errorf("shard %d: index %s side lists hold %d rows, memtable has %d", ts.shard.id, col, inMem, len(ts.mem))
		}
	}
}

// rowsIdentical compares rows by their encoding, so -0.0 and +0.0
// differ.
func rowsIdentical(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(encodeRow(nil, a[i]), encodeRow(nil, b[i])) {
			return false
		}
	}
	return true
}

// benchTable builds a large attribute table, optionally indexed.
func benchTable(b *testing.B, n int, indexed bool) *Table {
	b.Helper()
	db := OpenMemory()
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		b.Fatal(err)
	}
	var rows []Row
	id := int64(1)
	for p := 1; p <= n; p++ {
		for _, attr := range []string{"pulse", "weight", "age", "blood pressure", "smoking"} {
			rows = append(rows, Row{
				Int(id), Int(int64(p)), Str(attr),
				Str(fmt.Sprintf("v%d", p)), Float(float64(p % 200)),
			})
			id++
		}
	}
	if err := tbl.InsertBatch(rows); err != nil {
		b.Fatal(err)
	}
	if indexed {
		if err := tbl.CreateIndex("attribute"); err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

// BenchmarkQueryIndexed vs BenchmarkQueryScan is the index ablation: the
// same equality+range question answered through the attribute index and
// by full scan.
func BenchmarkQueryIndexed(b *testing.B) {
	tbl := benchTable(b, 2000, true)
	q := Query{Preds: []Pred{Eq("attribute", Str("pulse")), Ge("numeric", Float(150))}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, stats, err := tbl.Query(q)
		if err != nil || !stats.UsedIndex || len(rows) == 0 {
			b.Fatalf("rows=%d stats=%+v err=%v", len(rows), stats, err)
		}
	}
}

func BenchmarkQueryScan(b *testing.B) {
	tbl := benchTable(b, 2000, false)
	q := Query{Preds: []Pred{Eq("attribute", Str("pulse")), Ge("numeric", Float(150))}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, stats, err := tbl.Query(q)
		if err != nil || !stats.FullScan || len(rows) == 0 {
			b.Fatalf("rows=%d stats=%+v err=%v", len(rows), stats, err)
		}
	}
}
