package store

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// The covered tests pin index-only answers: an index whose postings
// carry every column answers Query from its posting streams and side
// lists alone. It must return exactly the rows the resolve path
// returns, in the same order, read no block, and keep its include list
// through every reopen, compaction and repair.

// allCols is the include list that makes an attribute index cover
// attrSchema.
var allCols = []string{"patient", "value", "numeric"}

// namedAttrSchema is attrSchema under another table name.
func namedAttrSchema(name string) Schema {
	s := attrSchema()
	s.Name = name
	return s
}

// twinTables creates two tables of the same rows: cov, whose index on
// col includes the given columns, and res, whose index on col includes
// nothing and so resolves every run-resident row from its blocks.
func twinTables(t *testing.T, db *DB, col string, include ...string) (cov, res *Table) {
	t.Helper()
	var err error
	if cov, err = db.CreateTable(namedAttrSchema("cov")); err != nil {
		t.Fatal(err)
	}
	if res, err = db.CreateTable(namedAttrSchema("res")); err != nil {
		t.Fatal(err)
	}
	if err := cov.CreateIndex(col, include...); err != nil {
		t.Fatal(err)
	}
	if err := res.CreateIndex(col); err != nil {
		t.Fatal(err)
	}
	return cov, res
}

// insertBoth inserts the same rows into both tables.
func insertBoth(t *testing.T, rows []Row, tbls ...*Table) {
	t.Helper()
	for _, tbl := range tbls {
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
	}
}

// twinRows is rows for ids [from, to): 3 attributes, numeric values
// spread over both signs including ±0.0.
func twinRows(from, to int64) []Row {
	var rows []Row
	for id := from; id < to; id++ {
		num := float64(id%7) - 3
		switch id % 11 {
		case 0:
			num = math.Copysign(0, -1)
		case 1:
			num = 0
		}
		attr := []string{"pulse", "smoking", "weight"}[id%3]
		rows = append(rows, Row{Int(id), Int(id % 13), Str(attr), Str(fmt.Sprintf("v%d", id%5)), Float(num)})
	}
	return rows
}

// assertSameAnswer runs q on both tables and requires identical rows
// (by encoding, so -0.0 and +0.0 differ) in the same order, cov's from
// its postings alone.
func assertSameAnswer(t *testing.T, cov, res *Table, q Query) {
	t.Helper()
	got, gst, err := cov.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want, wst, err := res.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !gst.Covered || wst.Covered || gst.Plan() != "index-only("+gst.IndexCol+")" {
		t.Fatalf("%v: plans %+v / %+v, want covered and resolved", q.Preds, gst, wst)
	}
	if len(want) == 0 {
		t.Fatalf("%v: no rows; the comparison shows nothing", q.Preds)
	}
	if !rowsIdentical(got, want) {
		t.Fatalf("%v: covered rows differ from resolved:\n got %v\nwant %v", q.Preds, got, want)
	}
	if gst.RowsExamined != wst.RowsExamined || gst.IndexProbes != wst.IndexProbes {
		t.Errorf("%v: covered examined %d rows in %d probes, resolved %d in %d", q.Preds, gst.RowsExamined, gst.IndexProbes, wst.RowsExamined, wst.IndexProbes)
	}
}

// TestCoveredEqualsResolved: on 1 and 4 shards, with rows in two runs
// and the memtable, a covering index answers equality and range walks,
// with residual filters on included columns, with exactly the resolve
// path's rows — also on a float index holding -0.0, whose key is
// +0.0's.
func TestCoveredEqualsResolved(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, tc := range []struct {
				col     string
				include []string
				queries []Query
			}{
				{"attribute", allCols, []Query{
					{Preds: []Pred{Eq("attribute", Str("pulse"))}},
					{Preds: []Pred{Eq("attribute", Str("pulse")), Gt("numeric", Float(0))}},
					{Preds: []Pred{Eq("attribute", Str("smoking")), Eq("value", Str("v2")), Le("patient", Int(6))}},
					{Preds: []Pred{Ge("attribute", Str("p")), Lt("attribute", Str("t")), Ge("numeric", Float(0))}},
					{Preds: []Pred{Gt("attribute", Str("pulse"))}},
				}},
				{"numeric", []string{"patient", "attribute", "value", "numeric"}, []Query{
					{Preds: []Pred{Eq("numeric", Float(0))}},
					{Preds: []Pred{Eq("numeric", Float(math.Copysign(0, -1))), Eq("attribute", Str("weight"))}},
					{Preds: []Pred{Ge("numeric", Float(-1)), Le("numeric", Float(1))}},
				}},
			} {
				db, err := OpenSharded(filepath.Join(t.TempDir(), "twin.db"), shards)
				if err != nil {
					t.Fatal(err)
				}
				cov, res := twinTables(t, db, tc.col, tc.include...)
				insertBoth(t, twinRows(1, 400), cov, res)
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
				insertBoth(t, twinRows(400, 800), cov, res)
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
				insertBoth(t, twinRows(800, 1000), cov, res) // memtable rows
				for _, q := range tc.queries {
					assertSameAnswer(t, cov, res, q)
				}
				checkIndexConsistent(t, cov)
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestFloatIndexCoversOnlyWithItsColumn: a float index's key folds
// -0.0 into +0.0, so it covers only when it includes its own column.
func TestFloatIndexCoversOnlyWithItsColumn(t *testing.T) {
	s := attrSchema()
	for _, tc := range []struct {
		col     string
		include []string
		covered bool
	}{
		{"attribute", allCols, true},
		{"attribute", []string{"patient", "value"}, false},
		{"patient", []string{"attribute", "value", "numeric"}, true},
		{"numeric", []string{"patient", "attribute", "value"}, false},
		{"numeric", []string{"patient", "attribute", "value", "numeric"}, true},
	} {
		ix, err := newIndex(&s, tc.col, tc.include)
		if err != nil {
			t.Fatal(err)
		}
		if ix.covered != tc.covered {
			t.Errorf("index on %s including %v: covered %v, want %v", tc.col, tc.include, ix.covered, tc.covered)
		}
	}
	for _, bad := range [][]string{{"nope"}, {"id"}, {"value", "value"}} {
		if _, err := newIndex(&s, "attribute", bad); err == nil {
			t.Errorf("include list %v accepted", bad)
		}
	}
}

// TestCoveredQueryReadsNoBlock: with every row in runs, a covered
// query reports no segment, no cache hit and no miss, and the engine's
// block cache counters do not move; the same query on the resolving
// twin does read blocks, so the counters can see a read.
func TestCoveredQueryReadsNoBlock(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, err := OpenSharded(filepath.Join(t.TempDir(), "noblock.db"), shards)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			cov, res := twinTables(t, db, "attribute", allCols...)
			insertBoth(t, twinRows(1, 2000), cov, res)
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
			q := Query{Preds: []Pred{Eq("attribute", Str("pulse")), Gt("numeric", Float(0))}}
			before := db.BlockCacheStats()
			rows, st, err := cov.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			after := db.BlockCacheStats()
			if len(rows) == 0 || !st.Covered || st.Segments != 0 || st.CacheHits != 0 || st.CacheMisses != 0 {
				t.Fatalf("covered query: %d rows, stats %+v; want rows, covered, no segment and no block read", len(rows), st)
			}
			if after.Hits != before.Hits || after.Misses != before.Misses {
				t.Fatalf("covered query moved the block cache: %+v → %+v", before, after)
			}
			if _, st, err := res.Query(q); err != nil || st.CacheHits+st.CacheMisses == 0 || st.Segments == 0 {
				t.Fatalf("resolving twin read no block (stats %+v, err %v): the counters cannot see a read", st, err)
			}
		})
	}
}

// failRecorder is a testing.TB that records failures instead of
// failing, so a test can assert that a checker objects.
type failRecorder struct {
	testing.TB
	failures []string
}

func (r *failRecorder) Errorf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *failRecorder) Fatalf(format string, args ...any) { r.Errorf(format, args...) }

// TestCheckerComparesIncludedValues: checkIndexConsistent compares
// every posting entry's included values with its row, so a posting
// written by an add that skipped an included column fails the check,
// in a run-resident entry and in a memtable one alike.
func TestCheckerComparesIncludedValues(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "check.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("attribute", allCols...); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertBatch(twinRows(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertBatch(twinRows(100, 130)); err != nil {
		t.Fatal(err)
	}
	rec := &failRecorder{TB: t}
	checkIndexConsistent(rec, tbl)
	if len(rec.failures) > 0 {
		t.Fatalf("sound index fails the check: %v", rec.failures)
	}

	ts := tbl.shards[0]
	ix := ts.secondary["attribute"]
	v, _ := ix.tree.Get(encodeKey(Str("pulse")))
	pl := v.(*postingList)
	sound := pl.stream
	// Rewrite entry i as an add that skipped the last included column
	// would have written it.
	skipLast := func(i int) []byte {
		var out []byte
		s := sound
		for e := 0; e < pl.n; e++ {
			var vals []Value
			for range ix.cols {
				var v Value
				v, s, _ = decodeValue(s)
				vals = append(vals, v)
			}
			if e == i {
				vals = vals[:len(vals)-1]
			}
			for _, v := range vals {
				out = appendValue(out, v)
			}
		}
		return out
	}
	for _, i := range []int{0, pl.n - 1} { // the first entry is in a run, the last in the memtable
		pl.stream = skipLast(i)
		rec := &failRecorder{TB: t}
		checkIndexConsistent(rec, tbl)
		pl.stream = sound
		if len(rec.failures) == 0 {
			t.Errorf("entry %d without its last included value passes the check", i)
		}
	}
}

// TestKeyDecodeRoundTrip: decodeKey inverts encodeKey for every value
// type — the covered path rebuilds an indexed value from its posting's
// key — except -0.0, whose key is +0.0's.
func TestKeyDecodeRoundTrip(t *testing.T) {
	vals := []Value{
		Int(math.MinInt64), Int(-1), Int(0), Int(1), Int(math.MaxInt64),
		Float(math.Inf(-1)), Float(-1.5), Float(-math.SmallestNonzeroFloat64), Float(0), Float(1e-300), Float(2.5), Float(math.Inf(1)),
		Str(""), Str("pulse"), Str("\x00\xff"),
		Bool(false), Bool(true),
	}
	for _, v := range vals {
		got := decodeKey(encodeKey(v), v.Type)
		if got != v || math.Signbit(got.F) != math.Signbit(v.F) {
			t.Errorf("decodeKey(encodeKey(%v)) = %v", v, got)
		}
	}
	negZero := Float(math.Copysign(0, -1))
	if got := decodeKey(encodeKey(negZero), TFloat); math.Signbit(got.F) {
		t.Errorf("-0.0 decodes to %v; its key is +0.0's, so it must decode to +0.0", got)
	}
}

// TestIncludeListDurable: an index's include list survives a reopen
// (replay of the create-index record), Compact's staged log, and the
// open-time repair of a shard that lost its records; the index stays
// covering throughout.
func TestIncludeListDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "durable.db")
	db, err := OpenSharded(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("attribute", allCols...); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("patient"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertBatch(twinRows(1, 300)); err != nil {
		t.Fatal(err)
	}
	reopen := func(when string) {
		t.Helper()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if db, err = OpenSharded(path, 4); err != nil {
			t.Fatal(err)
		}
		if tbl, err = db.Table("extracted"); err != nil {
			t.Fatal(err)
		}
		for i, ts := range tbl.shards {
			att, pat := ts.secondary["attribute"], ts.secondary["patient"]
			if att == nil || !slices.Equal(att.include, allCols) || !att.covered || pat == nil || len(pat.include) != 0 || pat.covered {
				t.Fatalf("%s: shard %d indexes %+v / %+v, want attribute covering with %v and patient with none", when, i, att, pat, allCols)
			}
		}
		if h := db.Health(); !h.Ok() {
			t.Fatalf("%s: health %v", when, h)
		}
		checkIndexConsistent(t, tbl)
	}
	reopen("replay")
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertBatch(twinRows(300, 400)); err != nil {
		t.Fatal(err)
	}
	reopen("after Compact")
	// Shard 2 loses every record; the repair rebuilds its indexes from
	// the other shards' lists and logs them, so a second open finds
	// them in shard 2's own log.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, shardDirName(2), shardWALName), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err = OpenSharded(path, 4); err != nil {
		t.Fatal(err)
	}
	reopen("after the repair")
	defer db.Close()
}

// TestCreateIndexWithNewListRebuilds: CreateIndex on an existing index
// with another include list rebuilds it and logs one record per shard;
// the same list again is a no-op that logs nothing; replay takes the
// last record per column.
func TestCreateIndexWithNewListRebuilds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rebuild.db")
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
	if err := tbl.InsertBatch(twinRows(1, 200)); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertBatch(twinRows(200, 260)); err != nil {
		t.Fatal(err)
	}
	q := Query{Preds: []Pred{Eq("attribute", Str("weight")), Lt("numeric", Float(0))}}
	want, _, err := tbl.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		include []string
		logs    bool
		covered bool
	}{
		{allCols, true, true},
		{allCols, false, true},
		{[]string{"value"}, true, false},
		{nil, true, false},
		{nil, false, false},
		{allCols, true, true},
	} {
		size := db.LogSize()
		if err := tbl.CreateIndex("attribute", step.include...); err != nil {
			t.Fatal(err)
		}
		if logged := db.LogSize() > size; logged != step.logs {
			t.Fatalf("CreateIndex(attribute, %v): logged %v, want %v", step.include, logged, step.logs)
		}
		for _, reopen := range []bool{false, true} {
			if reopen {
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				if db, err = OpenSharded(path, 2); err != nil {
					t.Fatal(err)
				}
				if tbl, err = db.Table("extracted"); err != nil {
					t.Fatal(err)
				}
			}
			got, st, err := tbl.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if st.Covered != step.covered || !rowsIdentical(got, want) {
				t.Fatalf("include %v (reopened %v): covered %v, want %v; rows equal %v", step.include, reopen, st.Covered, step.covered, rowsIdentical(got, want))
			}
			checkIndexConsistent(t, tbl)
		}
	}
	db.Close()
}

// TestShardIncludeListsReconciled: a crash inside CreateIndex's
// logging loop leaves the new include list on a prefix of the shards.
// Open gives every shard the list of the lowest shard holding the
// index, rebuilding and logging it where it differs, so a second open
// finds the shards agreeing from their own logs.
func TestShardIncludeListsReconciled(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shard int      // the one shard whose log gains a record
		want  []string // the list every shard ends with
	}{
		{"prefix has the new list", 0, allCols},
		{"a later shard has the new list", 2, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "reconcile.db")
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
			if err := tbl.InsertBatch(twinRows(1, 300)); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			log := filepath.Join(path, shardDirName(tc.shard), shardWALName)
			f, err := os.OpenFile(log, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(frameRecord(encodeCreateIndexPayload("extracted", "attribute", allCols))); err != nil {
				t.Fatal(err)
			}
			f.Close()
			for open := 1; open <= 2; open++ {
				db, err := OpenSharded(path, 4)
				if err != nil {
					t.Fatal(err)
				}
				tbl, err := db.Table("extracted")
				if err != nil {
					t.Fatal(err)
				}
				for i, ts := range tbl.shards {
					if ix := ts.secondary["attribute"]; !slices.Equal(ix.include, tc.want) {
						t.Errorf("open %d: shard %d includes %v, want %v", open, i, ix.include, tc.want)
					}
				}
				checkIndexConsistent(t, tbl)
				size := db.LogSize()
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				if open == 2 {
					// The second open repaired nothing: it found every
					// list in its own shard's log.
					db, err := OpenSharded(path, 4)
					if err != nil {
						t.Fatal(err)
					}
					if db.LogSize() != size {
						t.Errorf("third open logged %d more bytes", db.LogSize()-size)
					}
					db.Close()
				}
			}
		})
	}
}

// badIncludeRecords are CRC-valid create-index records whose include
// list is malformed, each cut by replay like any corrupt record.
func badIncludeRecords() map[string][]byte {
	base := encodeCreateIndexPayload("extracted", "attribute", nil)
	withList := func(list ...string) []byte { return encodeCreateIndexPayload("extracted", "attribute", list) }
	return map[string][]byte{
		"unknown column":  withList("nope"),
		"primary key":     withList("id"),
		"repeated column": withList("value", "value"),
		"zero count":      append(slices.Clone(base), 0),
		"count too large": append(slices.Clone(base), 9, 1, 'x'),
		"trailing bytes":  append(withList("value"), 0),
		"torn name":       append(slices.Clone(base), 1, 5, 'v'),
	}
}

// badIncludeWALBytes is validWALBytes followed by a create-index record
// with a malformed include list and a sound batch after it.
func badIncludeWALBytes(tb testing.TB) []byte {
	tb.Helper()
	raw := append(validWALBytes(tb), frameRecord(badIncludeRecords()["unknown column"])...)
	r := Row{Int(4), Int(2), Str("pulse"), Str("x"), Float(70)}
	return append(raw, frameRecord(encodeBatchPayload("extracted", []memRow{{key: encodeKey(r[0]), row: r}}))...)
}

// TestReplayCutsMalformedIncludeList: a create-index record whose
// include list is malformed is cut like any corrupt record — the sound
// record after it goes too — and one record is reported dropped; the
// index the earlier record created stays, without included columns.
func TestReplayCutsMalformedIncludeList(t *testing.T) {
	valid := validWALBytes(t)
	for name, rec := range badIncludeRecords() {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.db")
			r := Row{Int(4), Int(2), Str("pulse"), Str("x"), Float(70)}
			data := append(slices.Clone(valid), frameRecord(rec)...)
			data = append(data, frameRecord(encodeBatchPayload("extracted", []memRow{{key: encodeKey(r[0]), row: r}}))...)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			db, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if h := db.Health(); h.DroppedRecords != 1 {
				t.Fatalf("health %+v, want one dropped record", h)
			}
			tbl, err := db.Table("extracted")
			if err != nil {
				t.Fatal(err)
			}
			if tbl.Len() != 3 {
				t.Errorf("%d rows, want the 3 before the cut", tbl.Len())
			}
			if ix := tbl.shards[0].secondary["attribute"]; ix == nil || len(ix.include) != 0 {
				t.Errorf("attribute index %+v, want the earlier record's, with no include list", ix)
			}
			if _, err := tbl.Get(Int(4)); !errors.Is(err, ErrNotFound) {
				t.Errorf("row after the cut: %v, want ErrNotFound", err)
			}
		})
	}
}
