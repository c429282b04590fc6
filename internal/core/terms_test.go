package core

import (
	"fmt"
	"testing"

	"repro/internal/lexicon"
	"repro/internal/ontology"
	"repro/internal/records"
	"repro/internal/textproc"
)

// testPR is a minimal micro-averaged precision/recall counter, local to
// this test to avoid importing the eval package (which imports core).
type testPR struct{ etrue, etotal, tinst int }

func (p *testPR) addSets(extracted, gold []string) {
	goldNorm := map[string]bool{}
	for _, g := range gold {
		goldNorm[lexicon.Normalize(g)] = true
	}
	seen := map[string]bool{}
	for _, e := range extracted {
		n := lexicon.Normalize(e)
		if seen[n] {
			continue
		}
		seen[n] = true
		if goldNorm[n] {
			p.etrue++
		}
	}
	p.etotal += len(seen)
	p.tinst += len(goldNorm)
}

func (p testPR) Precision() float64 {
	if p.etotal == 0 {
		return 1
	}
	return float64(p.etrue) / float64(p.etotal)
}

func (p testPR) Recall() float64 {
	if p.tinst == 0 {
		return 1
	}
	return float64(p.etrue) / float64(p.tinst)
}

func (p testPR) String() string {
	return fmt.Sprintf("P=%.1f%% R=%.1f%%", 100*p.Precision(), 100*p.Recall())
}

// extractBody runs term extraction over a header-less section body,
// which Analyze turns into one section.
func extractBody(x *TermExtractor, body string, predefined []string) []ExtractedTerm {
	return x.ExtractSection(textproc.Analyze(body).Sections[0], predefined)
}

func newTermExtractor(t *testing.T, resolve bool) *TermExtractor {
	t.Helper()
	return &TermExtractor{Ont: ontology.MustNew(ontology.Options{}), ResolveSynonyms: resolve}
}

func TestExtractPaperExample(t *testing.T) {
	// §3.2: "Significant for a postoperative CVA after undergoing a
	// cholecystectomy and a midline hernia closure" → three terms.
	x := newTermExtractor(t, true)
	terms := extractBody(x, "Significant for a postoperative CVA after undergoing a cholecystectomy and a midline hernia closure.", ontology.PredefinedSurgical)
	names := map[string]bool{}
	for _, tm := range terms {
		names[tm.Concept.Preferred] = true
	}
	for _, want := range []string{"postoperative cva", "cholecystectomy", "midline hernia closure"} {
		if !names[want] {
			t.Errorf("missing term %q; got %v", want, names)
		}
	}
}

func TestExtractTermList(t *testing.T) {
	x := newTermExtractor(t, true)
	terms := extractBody(x, "Significant for diabetes, heart disease, high blood pressure, hypercholesterolemia, bronchitis, arrhythmia, and depression.", ontology.PredefinedMedical)
	if len(terms) != 7 {
		got := make([]string, len(terms))
		for i, tm := range terms {
			got[i] = tm.Surface
		}
		t.Fatalf("extracted %d terms, want 7: %v", len(terms), got)
	}
	for _, tm := range terms {
		if !tm.Predefined {
			t.Errorf("%q (→%s) not predefined", tm.Surface, tm.Concept.Preferred)
		}
	}
}

func TestExtractSynonymResolution(t *testing.T) {
	body := "Gallbladder removal and cervical laminectomy."
	// With synonym resolution: "gallbladder removal" → cholecystectomy →
	// predefined.
	terms := extractBody(newTermExtractor(t, true), body, ontology.PredefinedSurgical)
	pre, other := SplitTerms(terms)
	if len(pre) != 2 || len(other) != 0 {
		t.Errorf("with synonyms: pre=%v other=%v", pre, other)
	}
	// Without: the synonym surface is still a UMLS term but lands in
	// "other" — the paper's predefined-surgical failure mode.
	terms = extractBody(newTermExtractor(t, false), body, ontology.PredefinedSurgical)
	pre, other = SplitTerms(terms)
	if len(pre) != 1 || len(other) != 1 {
		t.Errorf("without synonyms: pre=%v other=%v", pre, other)
	}
}

func TestExtractUnknownTermsIgnored(t *testing.T) {
	x := newTermExtractor(t, true)
	terms := extractBody(x, "Significant for chronic fatigue syndrome.", ontology.PredefinedMedical)
	for _, tm := range terms {
		if tm.Surface == "chronic fatigue syndrome" {
			t.Errorf("out-of-vocabulary term extracted: %v", tm)
		}
	}
}

func TestExtractDedup(t *testing.T) {
	x := newTermExtractor(t, true)
	terms := extractBody(x, "Diabetes.  Diabetes mellitus.", ontology.PredefinedMedical)
	count := 0
	for _, tm := range terms {
		if tm.Concept.Preferred == "diabetes" {
			count++
		}
	}
	// Two different normalized surfaces may both appear, but identical
	// normalizations must not repeat.
	if count > 2 {
		t.Errorf("diabetes extracted %d times", count)
	}
}

func TestE2TermExtractionShape(t *testing.T) {
	// Table 1's qualitative shape on the default corpus, paper regime
	// (synonym resolution off):
	//   predefined medical history:  high P and R (≈97%)
	//   other medical history:       mid P (≈76%), higher R (≈86%)
	//   predefined surgical history: low R (≈35%)
	//   other surgical history:      lower P (≈62%)
	recs := records.Generate(records.DefaultGenOptions())
	x := newTermExtractor(t, false)

	var preMed, otherMed, preSurg, otherSurg testPR
	for _, r := range recs {
		sys := &System{Terms: x, Numeric: NewNumericExtractor(LinkGrammar)}
		ex := sys.Process(r.Text)
		goldPreM, goldOtherM := records.SplitPredefined(r.Gold.PastMedical, ontology.PredefinedMedical)
		goldPreS, goldOtherS := records.SplitPredefined(r.Gold.PastSurgical, ontology.PredefinedSurgical)
		preMed.addSets(ex.PreMedical, goldPreM)
		otherMed.addSets(ex.OtherMedical, goldOtherM)
		preSurg.addSets(ex.PreSurgical, goldPreS)
		otherSurg.addSets(ex.OtherSurgical, goldOtherS)
	}

	t.Logf("pre-med   %v", preMed)
	t.Logf("other-med %v", otherMed)
	t.Logf("pre-surg  %v", preSurg)
	t.Logf("other-surg %v", otherSurg)

	if preMed.Precision() < 0.85 || preMed.Recall() < 0.80 {
		t.Errorf("predefined medical should be high: %v", preMed)
	}
	if preSurg.Recall() > 0.65 {
		t.Errorf("predefined surgical recall should be low without synonyms: %v", preSurg)
	}
	if otherSurg.Precision() > preMed.Precision() {
		t.Errorf("other surgical precision should trail predefined medical: %v vs %v", otherSurg, preMed)
	}
	// The paper's fix: synonyms restore predefined surgical recall.
	xs := newTermExtractor(t, true)
	var preSurgFixed testPR
	for _, r := range recs {
		sys := &System{Terms: xs, Numeric: NewNumericExtractor(LinkGrammar)}
		ex := sys.Process(r.Text)
		goldPreS, _ := records.SplitPredefined(r.Gold.PastSurgical, ontology.PredefinedSurgical)
		preSurgFixed.addSets(ex.PreSurgical, goldPreS)
	}
	t.Logf("pre-surg with synonyms %v", preSurgFixed)
	if preSurgFixed.Recall() <= preSurg.Recall() {
		t.Errorf("synonym resolution must improve predefined surgical recall: %v → %v", preSurg, preSurgFixed)
	}
}
