package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/records"
	"repro/internal/store"
)

func TestSystemEndToEnd(t *testing.T) {
	recs := records.Generate(records.DefaultGenOptions())
	sys, err := NewSystem(Config{Strategy: LinkGrammar, ResolveSynonyms: true})
	if err != nil {
		t.Fatal(err)
	}
	sys.TrainSmoking(recs)

	r := recs[0]
	ex := sys.Process(r.Text)
	if ex.Patient != r.ID {
		t.Errorf("patient id = %d, want %d", ex.Patient, r.ID)
	}
	if len(ex.Numeric) < 7 {
		t.Errorf("numeric attributes extracted = %d, want ≥7", len(ex.Numeric))
	}
	if len(ex.PreMedical)+len(ex.OtherMedical) == 0 {
		t.Error("no medical history extracted")
	}
	if r.Gold.Smoking != "" && ex.Smoking == "" {
		t.Error("smoking not classified")
	}
}

func TestPersistExtraction(t *testing.T) {
	recs := records.Generate(records.GenOptions{N: 3, Seed: 7})
	sys, err := NewSystem(Config{Strategy: LinkGrammar, ResolveSynonyms: true})
	if err != nil {
		t.Fatal(err)
	}
	db := store.OpenMemory()
	total := 0
	for _, r := range recs {
		n, err := PersistAll(db, []Extraction{sys.Process(r.Text)})
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	tbl, err := db.Table("extracted")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != total || total == 0 {
		t.Fatalf("persisted %d rows, table has %d", total, tbl.Len())
	}
	// Every row belongs to one of the three patients.
	tbl.Scan(func(row store.Row) bool {
		p := row[1].I
		if p < 1 || p > 3 {
			t.Errorf("row with patient %d", p)
		}
		return true
	})
}

// TestPersistAllAfterShardCrash reproduces the recovery scenario a
// torn shard WAL creates: ids become sparse (a middle slice of the id
// space is lost with one shard's tail), and a subsequent PersistAll
// must allocate past the surviving maximum instead of colliding with
// it.
func TestPersistAllAfterShardCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "extracted.db")
	db, err := store.OpenSharded(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	exs := []Extraction{
		{Patient: 1, Numeric: map[string]NumericValue{"pulse": {Attr: "pulse", Value: 80}, "weight": {Attr: "weight", Value: 70}}},
		{Patient: 2, Numeric: map[string]NumericValue{"pulse": {Attr: "pulse", Value: 90}, "weight": {Attr: "weight", Value: 80}}},
		{Patient: 3, Smoking: "never"},
	}
	if _, err := PersistAll(db, exs); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail off one shard's WAL: that shard loses rows whose
	// ids sit anywhere in the global sequence.
	wal := filepath.Join(path, "shard-001", "wal.log")
	st, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, st.Size()-20); err != nil {
		t.Fatal(err)
	}

	db, err = store.OpenSharded(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if !db.RecoveredWithLoss() {
		t.Fatal("fixture did not lose rows; test proves nothing")
	}
	// The recovered store must accept a fresh persistence pass without
	// duplicate-key collisions against the surviving sparse ids.
	if _, err := PersistAll(db, exs); err != nil {
		t.Fatalf("PersistAll after shard crash: %v", err)
	}
}

func TestNewSystemDefaults(t *testing.T) {
	sys, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Terms.Ont == nil {
		t.Error("default ontology not loaded")
	}
	ex := sys.Process("Vitals:  Pulse of 80.\n")
	if ex.Numeric[records.AttrPulse].Value != 80 {
		t.Errorf("pulse = %v", ex.Numeric[records.AttrPulse])
	}
}
