package id3

import (
	"testing"

	"repro/internal/textproc"
)

// features extracts the feature map of a header-less text, which
// Analyze turns into one section.
func features(text string, opts FeatureOptions) map[string]bool {
	return FeaturesFromSection(textproc.Analyze(text).Sections[0], opts)
}

func TestExtractFeaturesLemma(t *testing.T) {
	opts := DefaultOptions()
	// The paper's example: "denies," "denied" and "deny" collapse to one
	// feature when lemma is enabled.
	a := features("She denies smoking.", opts)
	b := features("She denied smoking.", opts)
	if !a["deny"] || !b["deny"] {
		t.Errorf("lemma features: %v / %v", a, b)
	}
	opts.UseLemma = false
	c := features("She denies smoking.", opts)
	if c["deny"] || !c["denies"] {
		t.Errorf("no-lemma features: %v", c)
	}
}

func TestExtractFeaturesPOSFilter(t *testing.T) {
	opts := FeatureOptions{Verbs: true, UseLemma: true}
	f := features("She quit smoking five years ago.", opts)
	if !f["quit"] {
		t.Errorf("verb 'quit' missing: %v", f)
	}
	if f["year"] || f["years"] {
		t.Errorf("noun leaked through verb-only filter: %v", f)
	}
	opts = FeatureOptions{Adverbs: true}
	f = features("She has never smoked.", opts)
	if !f["never"] {
		t.Errorf("adverb 'never' missing: %v", f)
	}
	if f["smoked"] || f["smoke"] {
		t.Errorf("verb leaked through adverb-only filter: %v", f)
	}
}

func TestExtractFeaturesFunctionWordsExcluded(t *testing.T) {
	f := features("She has never smoked.", DefaultOptions())
	if f["she"] {
		t.Errorf("pronoun extracted as feature: %v", f)
	}
	// "has" is a verb and legitimately extracted ("have" after lemma);
	// but determiners and prepositions must not be.
	f = features("Smoking history of a patient.", DefaultOptions())
	if f["of"] || f["a"] {
		t.Errorf("function words extracted: %v", f)
	}
}

func TestExtractFeaturesHeadOnly(t *testing.T) {
	opts := DefaultOptions()
	opts.HeadOnly = true
	f := features("She reports heavy tobacco use.", opts)
	// "heavy tobacco use": head is "use".
	if !f["use"] {
		t.Errorf("head noun missing: %v", f)
	}
	if f["heavy"] || f["tobacco"] {
		t.Errorf("non-head extracted with HeadOnly: %v", f)
	}
}

func TestExtractFeaturesConstituents(t *testing.T) {
	opts := FeatureOptions{Nouns: true, Verbs: true, Adjectives: true, Adverbs: true, UseLemma: true, Object: true}
	f := features("She quit smoking five years ago.", opts)
	// Object of "quit" is "smoking" (a noun here; its noun lemma is
	// itself, matching WordNet's morphy).
	if !f["smoking"] {
		t.Errorf("object constituent missing: %v", f)
	}
	if f["year"] {
		t.Errorf("supplement word leaked through object-only filter: %v", f)
	}
	opts = FeatureOptions{Nouns: true, Verbs: true, UseLemma: true, Verb: true}
	f = features("She quit smoking five years ago.", opts)
	if !f["quit"] {
		t.Errorf("verb constituent missing: %v", f)
	}
}

func TestExtractFeaturesConstituentFallback(t *testing.T) {
	// Unparseable fragment: constituent filter falls back to all words.
	opts := FeatureOptions{Nouns: true, UseLemma: true, Subject: true}
	f := features("None", opts)
	_ = f // must not panic; "None" is an interjection, no noun features
	opts2 := FeatureOptions{Nouns: true, UseLemma: true, Object: true}
	f2 := features("for with tobacco", opts2) // dangling prepositions: no linkage
	if !f2["tobacco"] {
		t.Errorf("fallback should extract nouns from unparseable text: %v", f2)
	}
}

func TestNumericThresholdFeatures(t *testing.T) {
	opts := DefaultOptions()
	opts.NumericThresholds = []float64{2}
	f := features("Alcohol use 1-2 day per week.", opts)
	if !f["num<=2"] {
		t.Errorf("range 1-2 should set num<=2: %v", f)
	}
	f = features("She drinks 4 days per week.", opts)
	if !f["num>2"] || f["num<=2"] {
		t.Errorf("4 should set only num>2: %v", f)
	}
	f = features("Alcohol use is social.", opts)
	if f["num>2"] || f["num<=2"] {
		t.Errorf("no numbers should set no numeric features: %v", f)
	}
}

func TestExtractFeaturesEndToEndSmoking(t *testing.T) {
	// The paper's four smoking examples must be separable by ID3 on
	// extracted features.
	texts := map[string]string{
		"She quit smoking five years ago": "former",
		"She is currently a smoker":       "current",
		"She has never smoked":            "never",
		"Patient denies tobacco use":      "never",
		"Former smoker, quit in 1995":     "former",
		"Smokes one pack per day":         "current",
		"No history of tobacco use":       "never",
		"She stopped smoking last year":   "former",
		"Current smoker for 20 years":     "current",
	}
	opts := DefaultOptions()
	var exs []Example
	for text, class := range texts {
		exs = append(exs, Example{Features: features(text, opts), Class: class})
	}
	tr := Train(exs)
	for text, class := range texts {
		if got := tr.Classify(features(text, opts)); got != class {
			t.Errorf("%q → %q, want %q", text, got, class)
		}
	}
}
