package core

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/ontology"
	"repro/internal/records"
	"repro/internal/store"
)

// syntheticExtractions builds hand-made extractions so warehouse tests
// do not depend on the NLP pipeline: patient p has pulse 60+p, smoking
// "current" when p is even, and diabetes for p divisible by 3.
func syntheticExtractions(n int) []Extraction {
	exs := make([]Extraction, 0, n)
	for p := 1; p <= n; p++ {
		ex := Extraction{
			Patient: p,
			Numeric: map[string]NumericValue{
				"pulse": {Attr: "pulse", Value: float64(60 + p)},
			},
			Smoking: "never",
		}
		if p%2 == 0 {
			ex.Smoking = "current"
		}
		if p%3 == 0 {
			ex.PreMedical = []string{"diabetes"}
		}
		exs = append(exs, ex)
	}
	return exs
}

func TestWarehouseAsk(t *testing.T) {
	db := store.OpenMemory()
	if _, err := PersistAll(db, syntheticExtractions(20)); err != nil {
		t.Fatal(err)
	}
	ont := ontology.MustNew(ontology.Options{})
	w, err := OpenWarehouse(db, ont)
	if err != nil {
		t.Fatal(err)
	}

	// Numeric-range question: pulse > 70 → patients 11..20.
	got, stats, err := w.Ask(NumAbove("pulse", 70))
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	if !slices.Equal(got, want) {
		t.Errorf("pulse > 70: got %v, want %v", got, want)
	}
	if stats.IndexedConds != stats.Conds || stats.FullScans != 0 {
		t.Errorf("question fell back to scan: %+v", stats)
	}

	// Conjunction across attributes: pulse > 70 AND current smoker.
	got, stats, err = w.Ask(NumAbove("pulse", 70), HasTerm("smoking", "current"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{12, 14, 16, 18, 20}; !slices.Equal(got, want) {
		t.Errorf("conjunction: got %v, want %v", got, want)
	}
	if stats.Conds != 2 || stats.FullScans != 0 {
		t.Errorf("stats: %+v", stats)
	}

	// Concept-term question through a synonym: "dm" resolves to the
	// preferred name "diabetes".
	got, _, err = w.Ask(HasTerm("predefined past medical history", "dm"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{3, 6, 9, 12, 15, 18}; !slices.Equal(got, want) {
		t.Errorf("term via synonym: got %v, want %v", got, want)
	}

	// Range condition: 65 <= pulse <= 70 → patients 5..10.
	got, _, err = w.Ask(NumBetween("pulse", 65, 70))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{5, 6, 7, 8, 9, 10}; !slices.Equal(got, want) {
		t.Errorf("between: got %v, want %v", got, want)
	}

	if _, _, err := w.Ask(); err == nil {
		t.Error("empty question accepted")
	}
	if _, _, err := w.Ask(Cond{}); err == nil {
		t.Error("condition without attribute accepted")
	}
}

func TestWarehousePatientAndPrevalence(t *testing.T) {
	db := store.OpenMemory()
	if _, err := PersistAll(db, syntheticExtractions(12)); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWarehouse(db, nil)
	if err != nil {
		t.Fatal(err)
	}

	rows, err := w.Patient(6)
	if err != nil {
		t.Fatal(err)
	}
	// Patient 6: pulse, smoking, diabetes → 3 rows sorted by attribute.
	if len(rows) != 3 {
		t.Fatalf("patient 6 has %d rows, want 3: %+v", len(rows), rows)
	}
	if rows[0].Attribute != "predefined past medical history" || rows[0].Value != "diabetes" {
		t.Errorf("unexpected first row: %+v", rows[0])
	}
	if rows[1].Attribute != "pulse" || rows[1].Numeric != 66 {
		t.Errorf("unexpected pulse row: %+v", rows[1])
	}

	prev, err := w.Prevalence("smoking")
	if err != nil {
		t.Fatal(err)
	}
	if prev["current"] != 6 || prev["never"] != 6 {
		t.Errorf("smoking prevalence: %+v", prev)
	}
}

// TestWarehouseConcurrentWithIngest pins the concurrent-reader path:
// warehouse queries overlap a live ProcessStream ingest, race-cleanly
// (run under -race in CI) and with the indexes consistent at the end.
func TestWarehouseConcurrentWithIngest(t *testing.T) {
	recs := func() []records.Record {
		opts := records.DefaultGenOptions()
		opts.N = 16
		return records.Generate(opts)
	}()
	sys, err := NewSystem(Config{Strategy: LinkGrammar, ResolveSynonyms: true})
	if err != nil {
		t.Fatal(err)
	}

	db := store.OpenMemory()
	w, err := OpenWarehouse(db, nil)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var writerErr error
	go func() {
		defer close(done)
		batch := make([]Extraction, 0, 4)
		for _, ex := range sys.ProcessStream(context.Background(), slices.Values(recs), 2) {
			batch = append(batch, ex)
			if len(batch) == cap(batch) {
				if _, err := PersistAll(db, batch); err != nil {
					writerErr = err
					return
				}
				batch = batch[:0]
			}
		}
		if _, err := PersistAll(db, batch); err != nil {
			writerErr = err
		}
	}()

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, _, err := w.Ask(NumAbove("pulse", 0)); err != nil {
					t.Errorf("Ask during ingest: %v", err)
					return
				}
				if _, err := w.Patient(1); err != nil {
					t.Errorf("Patient during ingest: %v", err)
					return
				}
			}
		}()
	}
	<-done
	wg.Wait()
	if writerErr != nil {
		t.Fatal(writerErr)
	}

	// After the ingest settles, the indexes answer exactly what a scan
	// answers.
	rows, stats, err := w.Rows(HasAttr("pulse"))
	if err != nil || stats.FullScans != 0 {
		t.Fatalf("indexed read failed: %+v err %v", stats, err)
	}
	scan := w.Table().Select(func(r store.Row) bool { return r[2].S == "pulse" })
	if len(rows) != len(scan) {
		t.Errorf("index answered %d rows, scan %d", len(rows), len(scan))
	}
}
