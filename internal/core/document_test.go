package core

import (
	"testing"

	"repro/internal/records"
	"repro/internal/store"
	"repro/internal/textproc"
)

// TestProcessDocSingleAnalysisPass is the acceptance check for the
// one-pass Document pipeline: processing a pre-analyzed record must not
// run SplitSections or Tokenize again — every extractor (numeric, terms,
// medications, smoking) works off the shared analysis.
func TestProcessDocSingleAnalysisPass(t *testing.T) {
	recs := records.Generate(records.GenOptions{N: 4, Seed: 13})
	sys, err := NewSystem(Config{Strategy: LinkGrammar, ResolveSynonyms: true})
	if err != nil {
		t.Fatal(err)
	}
	sys.TrainSmoking(recs)

	r := recs[0]
	doc := textproc.Analyze(r.Text)
	s0, t0 := textproc.AnalysisCounts()
	ex := sys.ProcessDoc(doc)
	s1, t1 := textproc.AnalysisCounts()
	if s1 != s0 {
		t.Errorf("ProcessDoc re-ran SplitSections %d times, want 0", s1-s0)
	}
	// Every extractor shares the lazy per-section analysis: the first pass
	// tokenizes each consumed section at most once, never once per
	// extractor.
	if got, max := t1-t0, uint64(len(doc.Sections)); got == 0 || got > max {
		t.Errorf("first ProcessDoc ran %d tokenize passes over %d sections, want 1..%d", got, len(doc.Sections), max)
	}
	if ex.Patient != r.ID {
		t.Errorf("patient = %d, want %d", ex.Patient, r.ID)
	}

	// Re-processing the same document runs zero analysis passes: nothing
	// re-tokenizes or re-splits text that has already been analyzed.
	s1, t1 = textproc.AnalysisCounts()
	sys.ProcessDoc(doc)
	s2, t2 := textproc.AnalysisCounts()
	if s2 != s1 || t2 != t1 {
		t.Errorf("second ProcessDoc re-ran analysis: %d section splits, %d tokenizes", s2-s1, t2-t1)
	}

	// Process (the string wrapper) performs exactly one section split.
	s0, t0 = textproc.AnalysisCounts()
	sys.Process(r.Text)
	s1, t1 = textproc.AnalysisCounts()
	if got := s1 - s0; got != 1 {
		t.Errorf("Process ran %d section splits, want 1", got)
	}
	if got, max := t1-t0, uint64(len(doc.Sections)); got > max {
		t.Errorf("Process ran %d tokenize passes over %d sections, want ≤%d", got, len(doc.Sections), max)
	}
}

// TestProcessDocMatchesProcess pins the wrapper equivalence: analyzing
// first and processing the document yields exactly what Process does.
func TestProcessDocMatchesProcess(t *testing.T) {
	recs := records.Generate(records.GenOptions{N: 3, Seed: 17})
	sys, err := NewSystem(Config{Strategy: LinkGrammar, ResolveSynonyms: true})
	if err != nil {
		t.Fatal(err)
	}
	sys.TrainSmoking(recs)
	for i, r := range recs {
		a := sys.Process(r.Text)
		b := sys.ProcessDoc(textproc.Analyze(r.Text))
		if a.Patient != b.Patient || a.Smoking != b.Smoking ||
			len(a.Numeric) != len(b.Numeric) || len(a.OtherMedical) != len(b.OtherMedical) {
			t.Errorf("record %d: Process %+v != ProcessDoc %+v", i, a, b)
		}
	}
}

func TestProcessMalformedPatientSection(t *testing.T) {
	sys, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ex := sys.Process("Patient:  not-a-number\nVitals:  Pulse of 80.\n")
	if ex.Patient != 0 {
		t.Errorf("malformed patient id parsed as %d, want 0", ex.Patient)
	}
	if ex.Numeric[records.AttrPulse].Value != 80 {
		t.Error("pulse lost alongside malformed patient id")
	}
}

// TestPersistAllBatchMatchesSingles checks that one batched PersistAll
// writes exactly the rows that one PersistAll per record does.
func TestPersistAllBatchMatchesSingles(t *testing.T) {
	recs := records.Generate(records.GenOptions{N: 5, Seed: 23})
	sys, err := NewSystem(Config{Strategy: LinkGrammar, ResolveSynonyms: true})
	if err != nil {
		t.Fatal(err)
	}
	exs := sys.ProcessAll(recs, 0)

	single := store.OpenMemory()
	nSingle := 0
	for _, ex := range exs {
		n, err := PersistAll(single, []Extraction{ex})
		if err != nil {
			t.Fatal(err)
		}
		nSingle += n
	}
	batched := store.OpenMemory()
	nBatch, err := PersistAll(batched, exs)
	if err != nil {
		t.Fatal(err)
	}
	if nBatch != nSingle || nBatch == 0 {
		t.Fatalf("batched PersistAll wrote %d rows, per-record loop wrote %d", nBatch, nSingle)
	}

	ts, err := single.Table("extracted")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := batched.Table("extracted")
	if err != nil {
		t.Fatal(err)
	}
	if ts.Len() != tb.Len() {
		t.Fatalf("table lengths differ: %d vs %d", ts.Len(), tb.Len())
	}
	var rowsSingle []store.Row
	ts.Scan(func(r store.Row) bool { rowsSingle = append(rowsSingle, r); return true })
	i := 0
	tb.Scan(func(r store.Row) bool {
		for c := range r {
			if r[c] != rowsSingle[i][c] {
				t.Errorf("row %d column %d: %v != %v", i, c, r[c], rowsSingle[i][c])
			}
		}
		i++
		return true
	})
}
