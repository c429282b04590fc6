package ontology

import "testing"

func TestLookupPreferredNames(t *testing.T) {
	o := MustNew(Options{})
	for _, name := range []string{"diabetes", "cholecystectomy", "hypertension", "breast cancer"} {
		c := o.Lookup(name)
		if c == nil {
			t.Errorf("Lookup(%q) = nil", name)
			continue
		}
		if c.Preferred != name {
			t.Errorf("Lookup(%q).Preferred = %q", name, c.Preferred)
		}
	}
}

func TestLookupSynonymsAndVariants(t *testing.T) {
	o := MustNew(Options{})
	cases := map[string]string{
		"high blood pressure":  "hypertension",
		"high blood pressures": "hypertension", // inflected variant
		"gallbladder removal":  "cholecystectomy",
		"heart attack":         "myocardial infarction",
		"stroke":               "postoperative cva",
		"hernia closure":       "midline hernia closure",
		"c-section":            "cesarean section",
		"Pressure High Blood":  "hypertension", // word order irrelevant after normalization
	}
	for surface, wantPreferred := range cases {
		c := o.Lookup(surface)
		if c == nil {
			t.Errorf("Lookup(%q) = nil", surface)
			continue
		}
		if c.Preferred != wantPreferred {
			t.Errorf("Lookup(%q) = %q, want %q", surface, c.Preferred, wantPreferred)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	o := MustNew(Options{})
	for _, term := range []string{"quantum flux capacitance", "", "  "} {
		if c := o.Lookup(term); c != nil {
			t.Errorf("Lookup(%q) = %v, want nil", term, c.Preferred)
		}
	}
}

func TestLookupWordsMatchesLookup(t *testing.T) {
	o := MustNew(Options{})
	a := o.Lookup("midline hernia closure")
	b := o.LookupWords([]string{"midline", "hernia", "closures"})
	if a == nil || b == nil || a.CUI != b.CUI {
		t.Errorf("LookupWords mismatch: %v vs %v", a, b)
	}
}

func TestDisableSynonyms(t *testing.T) {
	o := MustNew(Options{DisableSynonyms: true})
	if o.Lookup("cholecystectomy") == nil {
		t.Error("preferred name must still resolve")
	}
	if c := o.Lookup("gallbladder removal"); c != nil {
		t.Errorf("synonym resolved with synonyms disabled: %v", c.Preferred)
	}
}

func TestCoverageReducesConcepts(t *testing.T) {
	full := MustNew(Options{})
	half := MustNew(Options{Coverage: 0.5})
	if half.Len() >= full.Len() {
		t.Errorf("coverage 0.5: %d concepts, full: %d", half.Len(), full.Len())
	}
	if half.Len() == 0 {
		t.Error("coverage 0.5 kept nothing")
	}
	// Deterministic.
	half2 := MustNew(Options{Coverage: 0.5})
	if half.Len() != half2.Len() {
		t.Error("coverage selection not deterministic")
	}
}

func TestConceptAccessors(t *testing.T) {
	o := MustNew(Options{})
	c := o.ConceptByName("diabetes")
	if c == nil || c.Type != Disease {
		t.Fatalf("ConceptByName(diabetes) = %+v", c)
	}
	if o.Concept(c.CUI) != c {
		t.Error("Concept(CUI) mismatch")
	}
	if o.ConceptByName("zzz") != nil {
		t.Error("ConceptByName(zzz) should be nil")
	}
}

func TestPredefinedListsResolve(t *testing.T) {
	o := MustNew(Options{})
	for _, name := range PredefinedMedical {
		if c := o.Lookup(name); c == nil {
			t.Errorf("predefined medical %q not in ontology", name)
		}
	}
	for _, name := range PredefinedSurgical {
		if c := o.Lookup(name); c == nil {
			t.Errorf("predefined surgical %q not in ontology", name)
		}
	}
}

func TestSemanticTypes(t *testing.T) {
	o := MustNew(Options{})
	cases := map[string]SemType{
		"cholecystectomy": Procedure,
		"diabetes":        Disease,
		"back pain":       Finding,
		"aspirin":         Medication,
	}
	for name, want := range cases {
		c := o.Lookup(name)
		if c == nil || c.Type != want {
			t.Errorf("Lookup(%q).Type = %v, want %v", name, c, want)
		}
	}
}
