package ontology

import (
	"strings"

	"repro/internal/lexicon"
)

// Ontology is a loaded medical vocabulary held in in-memory maps, so the
// extraction hot path pays one probe per lookup.
type Ontology struct {
	concepts map[string]*Concept
	byNorm   map[string]*Concept // normalized surface form → concept
	byName   map[string]*Concept // lower-cased preferred name → concept
	synonyms bool
}

// Options control ontology construction for the coverage experiments.
type Options struct {
	// Coverage in (0,1] keeps that fraction of concepts (deterministic by
	// CUI hash). 0 means full coverage.
	Coverage float64
	// DisableSynonyms indexes only preferred names, reproducing the
	// paper's low recall on predefined surgical history ("failures to
	// recognize the synonyms of predefined surgical terms").
	DisableSynonyms bool
}

// New loads the embedded vocabulary with the given options. It cannot
// fail: the error result is always nil.
func New(opts Options) (*Ontology, error) {
	o := &Ontology{
		concepts: make(map[string]*Concept, len(seedConcepts)),
		byNorm:   make(map[string]*Concept, 4*len(seedConcepts)),
		byName:   make(map[string]*Concept, len(seedConcepts)),
		synonyms: !opts.DisableSynonyms,
	}
	// normPref tracks, during load only, whether a byNorm entry came from
	// a preferred name.
	normPref := make(map[string]bool, 4*len(seedConcepts))
	for i := range seedConcepts {
		c := &seedConcepts[i]
		if opts.Coverage > 0 && opts.Coverage < 1 && !keepForCoverage(c.CUI, opts.Coverage) {
			continue
		}
		o.concepts[c.CUI] = c
		o.byName[strings.ToLower(c.Preferred)] = c
		forms := []string{c.Preferred}
		if o.synonyms {
			forms = append(forms, c.Synonyms...)
		}
		for fi, f := range forms {
			norm := lexicon.Normalize(f)
			if norm == "" {
				continue
			}
			// When several concepts share a normalized form, the first
			// concept whose preferred name has that form wins; failing
			// that, the first concept loaded with it. Today every shared
			// form belongs to one concept ("migraine"/"migraines").
			if _, ok := o.byNorm[norm]; !ok || (fi == 0 && !normPref[norm]) {
				o.byNorm[norm] = c
				normPref[norm] = fi == 0
			}
		}
	}
	return o, nil
}

// MustNew is New without the always-nil error result.
func MustNew(opts Options) *Ontology {
	o, err := New(opts)
	if err != nil {
		panic(err)
	}
	return o
}

// Len returns the number of loaded concepts.
func (o *Ontology) Len() int { return len(o.concepts) }

// Lookup finds the concept for a candidate surface term. The term is
// normalized (lemma of each word, words sorted alphabetically — §3.2)
// and resolved with one in-memory map probe. It returns nil when the
// term is unknown.
func (o *Ontology) Lookup(term string) *Concept {
	norm := lexicon.Normalize(term)
	if norm == "" {
		return nil
	}
	return o.byNorm[norm]
}

// LookupWords is Lookup for a pre-tokenized candidate.
func (o *Ontology) LookupWords(words []string) *Concept {
	norm := lexicon.NormalizeWords(words)
	if norm == "" {
		return nil
	}
	return o.byNorm[norm]
}

// Concept returns the concept with the given CUI, or nil.
func (o *Ontology) Concept(cui string) *Concept {
	return o.concepts[cui]
}

// ConceptByName returns the concept whose preferred name is name
// (case-insensitive), or nil. The lower-cased name index is built at
// load, so this is one map probe instead of a scan over every concept.
func (o *Ontology) ConceptByName(name string) *Concept {
	return o.byName[strings.ToLower(name)]
}

// All returns the full embedded vocabulary (independent of any loaded
// Ontology's coverage). The corpus generator samples gold conditions and
// procedures from it.
func All() []Concept {
	out := make([]Concept, len(seedConcepts))
	copy(out, seedConcepts)
	return out
}

// keepForCoverage deterministically selects a fraction of concepts by a
// small string hash of the CUI, so coverage sweeps are reproducible.
func keepForCoverage(cui string, frac float64) bool {
	var h uint32 = 2166136261
	for i := 0; i < len(cui); i++ {
		h ^= uint32(cui[i])
		h *= 16777619
	}
	return float64(h%1000) < frac*1000
}
