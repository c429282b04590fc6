package core

import (
	"testing"

	"repro/internal/ontology"
	"repro/internal/textproc"
)

func TestNegationStart(t *testing.T) {
	cases := []struct {
		text    string
		negated string // a word that must be inside the scope, "" = no scope
		clear   string // a word that must be outside the scope
	}{
		{"No history of stroke.", "stroke", "history"},
		{"Denies any prior appendectomy.", "appendectomy", ""},
		{"Significant for diabetes.", "", "diabetes"},
		{"Negative for breast cancer.", "cancer", ""},
		{"She has never smoked.", "smoked", "she"},
		{"Without evidence of recurrence.", "recurrence", ""},
	}
	for _, c := range cases {
		sents := textproc.SplitSentences(c.text)
		if len(sents) != 1 {
			t.Fatalf("%q: %d sentences", c.text, len(sents))
		}
		sent := sents[0]
		idx := func(w string) int {
			for i, tok := range sent.Tokens {
				if tok.Lower() == w {
					return i
				}
			}
			t.Fatalf("%q: word %q not found", c.text, w)
			return -1
		}
		if c.negated != "" && !IsNegated(sent, idx(c.negated)) {
			t.Errorf("%q: %q should be negated", c.text, c.negated)
		}
		if c.clear != "" && IsNegated(sent, idx(c.clear)) {
			t.Errorf("%q: %q should not be negated", c.text, c.clear)
		}
	}
}

func TestTermExtractorFilterNegated(t *testing.T) {
	ont := ontology.MustNew(ontology.Options{})
	body := "Significant for diabetes and asthma.  No history of stroke."

	plain := &TermExtractor{Ont: ont, ResolveSynonyms: true}
	var names []string
	for _, tm := range extractBody(plain, body, ontology.PredefinedMedical) {
		names = append(names, tm.Concept.Preferred)
	}
	if !containsStr(names, "postoperative cva") { // "stroke" resolves to the CVA concept
		t.Errorf("baseline should extract the negated stroke: %v", names)
	}

	filtered := &TermExtractor{Ont: ont, ResolveSynonyms: true, FilterNegated: true}
	names = names[:0]
	for _, tm := range extractBody(filtered, body, ontology.PredefinedMedical) {
		names = append(names, tm.Concept.Preferred)
	}
	if containsStr(names, "postoperative cva") {
		t.Errorf("filter should drop the negated stroke: %v", names)
	}
	if !containsStr(names, "diabetes") || !containsStr(names, "asthma") {
		t.Errorf("filter must keep affirmed terms: %v", names)
	}
}

func TestNegationScopeIsPerSentence(t *testing.T) {
	ont := ontology.MustNew(ontology.Options{})
	// The negation in sentence one must not leak into sentence two.
	body := "No history of stroke.  Significant for diabetes."
	x := &TermExtractor{Ont: ont, ResolveSynonyms: true, FilterNegated: true}
	var names []string
	for _, tm := range extractBody(x, body, ontology.PredefinedMedical) {
		names = append(names, tm.Concept.Preferred)
	}
	if !containsStr(names, "diabetes") {
		t.Errorf("negation leaked across sentences: %v", names)
	}
}

func containsStr(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
