package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// queryTestDB persists a small synthetic extraction set to a WAL-backed
// database, with warehouse indexes created before ingest (the medex
// extract order).
func queryTestDB(t *testing.T) string { return shardedQueryTestDB(t, 1) }

// shardedQueryTestDB is queryTestDB with an explicit shard count.
func shardedQueryTestDB(t *testing.T, shards int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "extracted.db")
	db, err := store.OpenSharded(path, shards)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.OpenWarehouse(db, nil); err != nil {
		t.Fatal(err)
	}
	var exs []core.Extraction
	for p := 1; p <= 9; p++ {
		smoking := "never"
		if p%2 == 0 {
			smoking = "current"
		}
		exs = append(exs, core.Extraction{
			Patient: p,
			Numeric: map[string]core.NumericValue{"pulse": {Attr: "pulse", Value: float64(90 + p)}},
			Smoking: smoking,
		})
	}
	if _, err := core.PersistAll(db, exs); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestQueryCommand pins the acceptance path: medex query answers an
// equality and a numeric-range question from a persisted DB through the
// secondary index (0 full scans in the printed plan).
func TestQueryCommand(t *testing.T) {
	path := queryTestDB(t)

	var out strings.Builder
	if err := runQuery([]string{"-db", path, "-attr", "smoking", "-value", "current"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "patients (4): 2 4 6 8") {
		t.Errorf("equality answer wrong:\n%s", got)
	}
	if !strings.Contains(got, "1/1 conditions indexed") || !strings.Contains(got, "0 full scans") {
		t.Errorf("equality question did not use the index:\n%s", got)
	}

	out.Reset()
	if err := runQuery([]string{"-db", path, "-attr", "pulse", "-min", "95"}, &out); err != nil {
		t.Fatal(err)
	}
	got = out.String()
	if !strings.Contains(got, "patients (4): 6 7 8 9") {
		t.Errorf("range answer wrong:\n%s", got)
	}
	if !strings.Contains(got, "1/1 conditions indexed") || !strings.Contains(got, "0 full scans") {
		t.Errorf("range question did not use the index:\n%s", got)
	}

	out.Reset()
	if err := runQuery([]string{"-db", path, "-patient", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "patient 4 (2 attribute rows)") {
		t.Errorf("patient chart wrong:\n%s", got)
	}

	out.Reset()
	if err := runQuery([]string{"-db", path, "-attr", "pulse", "-min", "95", "-max", "98", "-rows"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "2 rows;") {
		t.Errorf("rows output wrong:\n%s", got)
	}

	if err := runQuery([]string{"-db", path}, &out); err == nil {
		t.Error("query without -attr/-patient accepted")
	}
	if err := runQuery([]string{}, &out); err == nil {
		t.Error("query without -db accepted")
	}
}

// TestQueryCommandSharded pins the fan-out acceptance path: the same
// questions against a 3-shard store return the same answers as the
// single-shard run in TestQueryCommand, still fully indexed, with the
// layout auto-detected and the fan-out width reported in the plan.
func TestQueryCommandSharded(t *testing.T) {
	path := shardedQueryTestDB(t, 3)

	var out strings.Builder
	if err := runQuery([]string{"-db", path, "-attr", "smoking", "-value", "current"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "patients (4): 2 4 6 8") {
		t.Errorf("sharded equality answer differs from single-shard:\n%s", got)
	}
	if !strings.Contains(got, "1/1 conditions indexed") || !strings.Contains(got, "0 full scans") {
		t.Errorf("sharded equality question did not use the index:\n%s", got)
	}
	if !strings.Contains(got, "3 shard(s)") {
		t.Errorf("plan does not report the fan-out width:\n%s", got)
	}

	out.Reset()
	if err := runQuery([]string{"-db", path, "-attr", "pulse", "-min", "95"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "patients (4): 6 7 8 9") {
		t.Errorf("sharded range answer differs from single-shard:\n%s", got)
	}

	out.Reset()
	if err := runQuery([]string{"-db", path, "-patient", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "patient 4 (2 attribute rows)") {
		t.Errorf("sharded patient chart wrong:\n%s", got)
	}

	// An explicit matching -shards works; a conflicting one is refused.
	out.Reset()
	if err := runQuery([]string{"-db", path, "-shards", "3", "-patient", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if err := runQuery([]string{"-db", path, "-shards", "2", "-patient", "4"}, &out); err == nil {
		t.Error("conflicting -shards accepted (resharding is unsupported)")
	}
}

// TestQueryCommandCompacted pins the segment read path end to end: the
// same questions against a compacted store (rows folded into immutable
// segment files) return the same answers, and the attribute question
// is answered index-only — the warehouse's attribute index covers the
// table — so its plan line reports no segment or block read.
func TestQueryCommandCompacted(t *testing.T) {
	path := shardedQueryTestDB(t, 2)
	db, err := store.OpenSharded(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := runQuery([]string{"-db", path, "-attr", "smoking", "-value", "current"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "patients (4): 2 4 6 8") {
		t.Errorf("compacted equality answer differs from single-shard:\n%s", got)
	}
	if !strings.Contains(got, "1/1 conditions indexed") || !strings.Contains(got, "0 full scans") {
		t.Errorf("compacted equality question did not use the index:\n%s", got)
	}
	if !strings.Contains(got, "(1 index-only)") || strings.Contains(got, "segment(s)") || strings.Contains(got, "cache") {
		t.Errorf("compacted equality question was not answered index-only, with no block read:\n%s", got)
	}

	out.Reset()
	if err := runQuery([]string{"-db", path, "-attr", "pulse", "-min", "95"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "patients (4): 6 7 8 9") {
		t.Errorf("compacted range answer differs from single-shard:\n%s", got)
	}

	out.Reset()
	if err := runQuery([]string{"-db", path, "-patient", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "patient 4 (2 attribute rows)") {
		t.Errorf("compacted patient chart wrong:\n%s", got)
	}
}

func TestPrintExtractionDoesNotPanic(t *testing.T) {
	printExtraction(core.Extraction{
		Patient: 1,
		Numeric: map[string]core.NumericValue{
			"pulse":          {Attr: "pulse", Value: 84},
			"blood pressure": {Attr: "blood pressure", Value: 144, Value2: 90, Ratio: true},
		},
		PreMedical: []string{"diabetes"},
		Smoking:    "never",
	})
}

// TestQueryCommandReportsReadAcceleration pins the CLI surface of the
// read path on a multi-run stack: a two-condition question over
// segment-resident rows is answered index-only on both conditions, so
// its plan line reports no segment, no block-cache read and no bloom
// counter, since runs carry no filters. (The block-cache counters stay
// covered by the store's read-path tests.)
func TestQueryCommandReportsReadAcceleration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "extracted.db")
	db, err := store.OpenSharded(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.OpenWarehouse(db, nil); err != nil { // creates table + indexes
		t.Fatal(err)
	}
	tbl, err := db.Table(core.ResultTable)
	if err != nil {
		t.Fatal(err)
	}
	const runs, perRun = 3, 300
	for r := 0; r < runs; r++ {
		var batch []store.Row
		for i := 0; i < perRun; i++ {
			id := int64(r*perRun + i)
			patient := id % 40
			row := store.Row{
				store.Int(id), store.Int(patient),
				store.Str("pulse"), store.Str("96"), store.Float(96),
			}
			if i%2 == 1 {
				row = store.Row{
					store.Int(id), store.Int(patient),
					store.Str("smoking"), store.Str("current"), store.Float(0),
				}
			}
			batch = append(batch, row)
		}
		if err := tbl.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := runQuery([]string{"-db", path, "-attr", "pulse", "-min", "95", "-cond", "smoking=current"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "patients (0): ") { // pulse rows have even ids and patients, smoking rows odd
		t.Errorf("two-condition answer wrong:\n%s", got)
	}
	if !strings.Contains(got, "(2 index-only)") || strings.Contains(got, "segment(s)") || strings.Contains(got, "cache") {
		t.Errorf("conditions were not answered index-only, with no block read:\n%s", got)
	}
	if strings.Contains(got, "bloom") {
		t.Errorf("plan line still reports bloom skips:\n%s", got)
	}
	if !strings.Contains(got, "2/2 conditions indexed") {
		t.Errorf("conditions did not resolve through the index:\n%s", got)
	}
}

// TestParseCond pins the -cond grammar.
func TestParseCond(t *testing.T) {
	c, err := parseCond("smoking=current")
	if err != nil || c.Attr != "smoking" || c.Term != "current" {
		t.Fatalf("parseCond equality = %+v, %v", c, err)
	}
	c, err = parseCond("pulse>100")
	if err != nil || c.Attr != "pulse" || c.Min == nil || *c.Min != 100 || !c.MinExcl || c.Max != nil {
		t.Fatalf("parseCond lower bound = %+v, %v", c, err)
	}
	c, err = parseCond("pulse>90<120")
	if err != nil || c.Min == nil || *c.Min != 90 || c.Max == nil || *c.Max != 120 {
		t.Fatalf("parseCond band = %+v, %v", c, err)
	}
	for _, bad := range []string{"", "pulse", "=x", "pulse=", "pulse>abc", "pulse>"} {
		if _, err := parseCond(bad); err == nil {
			t.Errorf("parseCond(%q) accepted", bad)
		}
	}
}
