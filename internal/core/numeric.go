// Package core implements the paper's information extraction system: the
// link-grammar numeric field extractor with pattern fallback (§3.1), the
// POS-pattern + ontology medical term extractor (§3.2), and the
// NLP-feature + ID3 categorical classifier (§3.3), wired into a pipeline
// over semi-structured records with result persistence.
package core

import (
	"strings"
	"sync"

	"repro/internal/lexicon"
	"repro/internal/linkgram"
	"repro/internal/records"
	"repro/internal/textproc"
)

// Strategy selects how numbers are associated with feature keywords when
// a sentence contains several of each.
type Strategy int

// Association strategies. LinkGrammar is the paper's system: linkage
// graph distance with pattern fallback for unparseable fragments.
// PatternOnly uses only the linguistic patterns; ProximityOnly picks the
// number nearest in token distance. The latter two are the A1 ablation
// baselines.
const (
	LinkGrammar Strategy = iota
	PatternOnly
	ProximityOnly
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case LinkGrammar:
		return "link-grammar"
	case PatternOnly:
		return "pattern-only"
	case ProximityOnly:
		return "proximity-only"
	}
	return "unknown"
}

// NumericField specifies one numeric attribute to extract.
type NumericField struct {
	Attr     string   // attribute name (records.Attr*)
	Keywords []string // feature names; synonyms and variants are expanded automatically
	Sections []string // record sections to search
	Ratio    bool     // the value is a ratio reading like blood pressure
}

// NumericValue is one extracted numeric value.
type NumericValue struct {
	Attr   string
	Value  float64
	Value2 float64 // second ratio component
	Ratio  bool
}

// DefaultNumericFields are the paper's eight numeric attributes.
func DefaultNumericFields() []NumericField {
	return []NumericField{
		{Attr: records.AttrAge, Keywords: nil, Sections: []string{"History of Present Illness"}},
		{Attr: records.AttrMenarche, Keywords: []string{"menarche"}, Sections: []string{"GYN History"}},
		{Attr: records.AttrGravida, Keywords: []string{"gravida"}, Sections: []string{"GYN History"}},
		{Attr: records.AttrPara, Keywords: []string{"para"}, Sections: []string{"GYN History"}},
		{Attr: records.AttrFirstBirthAge, Keywords: []string{"live birth", "first live birth"}, Sections: []string{"GYN History"}},
		{Attr: records.AttrBloodPressure, Keywords: []string{"blood pressure"}, Sections: []string{"Vitals"}, Ratio: true},
		{Attr: records.AttrPulse, Keywords: []string{"pulse"}, Sections: []string{"Vitals"}},
		{Attr: records.AttrWeight, Keywords: []string{"weight"}, Sections: []string{"Vitals"}},
	}
}

// NumericExtractor extracts numeric attributes from a record. After
// construction it is read-only and safe for concurrent use.
type NumericExtractor struct {
	Fields   []NumericField
	Strategy Strategy
	// expanded keyword variants per field index, built once
	expansions [][][]string
	expandOnce sync.Once
}

// NewNumericExtractor builds an extractor over the default fields.
func NewNumericExtractor(strategy Strategy) *NumericExtractor {
	x := &NumericExtractor{Fields: DefaultNumericFields(), Strategy: strategy}
	x.buildExpansions()
	return x
}

// buildExpansions precomputes the tokenized keyword variants for every
// field: each variant is a word sequence to match in the sentence.
func (x *NumericExtractor) buildExpansions() {
	x.expandOnce.Do(func() {
		x.expansions = make([][][]string, len(x.Fields))
		for i, f := range x.Fields {
			var vs [][]string
			for _, kw := range f.Keywords {
				for _, v := range lexicon.ExpandWithSynonyms(kw) {
					vs = append(vs, strings.Fields(v))
				}
			}
			x.expansions[i] = vs
		}
	})
}

// expansionsFor returns field i's keyword variants.
func (x *NumericExtractor) expansionsFor(i int) [][]string {
	x.buildExpansions()
	return x.expansions[i]
}

// ExtractDoc runs numeric extraction over an analyzed record, reusing its
// section and sentence analysis.
func (x *NumericExtractor) ExtractDoc(doc *textproc.Document) map[string]NumericValue {
	out := map[string]NumericValue{}
	for fi, f := range x.Fields {
		for _, secName := range f.Sections {
			sec, ok := doc.Section(secName)
			if !ok {
				continue
			}
			if f.Attr == records.AttrAge {
				if v, ok := extractAge(sec.Sentences()); ok {
					out[f.Attr] = NumericValue{Attr: f.Attr, Value: v}
				}
				continue
			}
			if v, ok := x.extractField(fi, sec); ok {
				out[f.Attr] = v
				break
			}
		}
	}
	return out
}

// extractField finds the field's value within one section's sentences,
// reusing the section's cached tag/parse analysis.
func (x *NumericExtractor) extractField(fi int, sec *textproc.DocSection) (NumericValue, bool) {
	f := x.Fields[fi]
	for si, sent := range sec.Sentences() {
		kwEnd := matchKeyword(sent, x.expansionsFor(fi))
		if kwEnd < 0 {
			continue
		}
		nums := textproc.AnnotateNumbers(sent)
		nums = filterNumbers(nums, f.Ratio)
		if len(nums) == 0 {
			continue
		}
		var chosen *textproc.NumberAnn
		switch {
		case len(nums) == 1:
			chosen = &nums[0]
		case x.Strategy == ProximityOnly:
			chosen = nearestByTokens(nums, kwEnd)
		case x.Strategy == PatternOnly:
			chosen = byPatterns(sent, nums, kwEnd)
		default: // LinkGrammar with pattern fallback
			chosen = byLinkage(sec, si, nums, kwEnd)
			if chosen == nil {
				chosen = byPatterns(sent, nums, kwEnd)
			}
		}
		if chosen == nil {
			continue
		}
		return NumericValue{Attr: f.Attr, Value: chosen.Value, Value2: chosen.Value2, Ratio: chosen.IsRatio}, true
	}
	return NumericValue{}, false
}

// matchKeyword scans the sentence for any keyword variant and returns the
// token index of the variant's last word, or -1. Words match on equality
// of lower-cased text or of noun lemmas.
func matchKeyword(sent textproc.Sentence, variants [][]string) int {
	toks := sent.Tokens
	for _, variant := range variants {
		if len(variant) == 0 {
			continue
		}
		for i := 0; i+len(variant) <= len(toks); i++ {
			ok := true
			for j, w := range variant {
				t := toks[i+j]
				if t.Kind != textproc.Word {
					ok = false
					break
				}
				lw := t.Lower()
				if lw != w && lexicon.Lemma(lw, lexicon.Noun) != w {
					ok = false
					break
				}
			}
			if ok {
				return i + len(variant) - 1
			}
		}
	}
	return -1
}

// filterNumbers keeps ratio readings for ratio fields and plain values
// otherwise; four-digit years are never field values.
func filterNumbers(nums []textproc.NumberAnn, wantRatio bool) []textproc.NumberAnn {
	var out []textproc.NumberAnn
	for _, n := range nums {
		if n.IsRatio != wantRatio {
			continue
		}
		if !n.IsRatio && n.Value >= 1900 && n.Value <= 2100 {
			continue // a calendar year ("quit in 1995")
		}
		out = append(out, n)
	}
	return out
}

// nearestByTokens picks the number with the smallest token-index distance
// from the keyword (the surface-proximity ablation baseline).
func nearestByTokens(nums []textproc.NumberAnn, kwTok int) *textproc.NumberAnn {
	best, bestD := -1, 1<<30
	for i, n := range nums {
		d := n.TokenIndex - kwTok
		if d < 0 {
			d = -d
		}
		if d < bestD {
			best, bestD = i, d
		}
	}
	if best < 0 {
		return nil
	}
	return &nums[best]
}

// byPatterns applies the paper's linguistic patterns: CONCEPT is NUMBER /
// CONCEPT of NUMBER / CONCEPT, NUMBER / CONCEPT: NUMBER, plus the
// "CONCEPT at age NUMBER" extension the GYN sentences need.
func byPatterns(sent textproc.Sentence, nums []textproc.NumberAnn, kwTok int) *textproc.NumberAnn {
	toks := sent.Tokens
	// Candidate positions after the keyword: the number must be the next
	// token, or follow one connective token, or follow "at age".
	numAt := func(idx int) *textproc.NumberAnn {
		for i := range nums {
			if nums[i].TokenIndex == idx {
				return &nums[i]
			}
		}
		return nil
	}
	// CONCEPT NUMBER ("gravida 4").
	if n := numAt(kwTok + 1); n != nil {
		return n
	}
	// CONCEPT <connective> NUMBER.
	if kwTok+2 < len(toks) {
		mid := strings.ToLower(toks[kwTok+1].Text)
		switch mid {
		case "is", "was", "of", ",", ":", "at", "about", "approximately":
			if n := numAt(kwTok + 2); n != nil {
				return n
			}
		}
	}
	// CONCEPT at age NUMBER ("menarche at age 10").
	if kwTok+3 < len(toks) &&
		strings.EqualFold(toks[kwTok+1].Text, "at") &&
		strings.EqualFold(toks[kwTok+2].Text, "age") {
		if n := numAt(kwTok + 3); n != nil {
			return n
		}
	}
	return nil
}

// byLinkage parses sentence si of the section — through the Document's
// tag-once/parse-once cache, so repeated fields over the same section
// never re-tag or re-parse — and picks the number at minimum weighted
// graph distance from the keyword token (§3.1: "the association of
// feature and number in a sentence is equivalent to searching for the
// node with the shortest distance from a fixed node in a weighted
// graph"). It returns nil when the sentence has no linkage.
func byLinkage(sec *textproc.DocSection, si int, nums []textproc.NumberAnn, kwTok int) *textproc.NumberAnn {
	lk, err := linkgram.ParseSection(sec, si)
	if err != nil {
		return nil
	}
	kwWord := lk.WordIndexForToken(kwTok)
	if kwWord < 0 {
		return nil
	}
	dist := lk.Graph(linkgram.DefaultWeights).ShortestFrom(kwWord)
	best, bestD := -1, 1e18
	for i, n := range nums {
		wi := lk.WordIndexForToken(n.TokenIndex)
		if wi < 0 {
			continue
		}
		if dist[wi] < bestD {
			best, bestD = i, dist[wi]
		}
	}
	if best < 0 || bestD > 1e17 {
		return nil
	}
	return &nums[best]
}

// extractAge handles the "50-year-old woman" construction of the HPI
// section: a number immediately followed by a year-old compound.
func extractAge(sents []textproc.Sentence) (float64, bool) {
	for _, sent := range sents {
		toks := sent.Tokens
		for i, t := range toks {
			if t.Kind != textproc.Number {
				continue
			}
			// "50-year-old" tokenizes as [50][-][year-old]; dictated
			// variants give [50][year][old] or [50][year-old].
			rest := toks[i+1:]
			var words []string
			for _, r := range rest {
				if r.Kind == textproc.Word {
					words = append(words, r.Lower())
				}
				if len(words) == 2 || (len(words) == 1 && strings.Contains(words[0], "-")) {
					break
				}
			}
			joined := strings.Join(words, "-")
			if strings.HasPrefix(joined, "year-old") || strings.HasPrefix(joined, "years-old") || joined == "year-old-woman" {
				n, _ := parseFloatPrefix(t.Text)
				return n, true
			}
		}
	}
	return 0, false
}

func parseFloatPrefix(s string) (float64, bool) {
	var v float64
	seen := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			break
		}
		v = v*10 + float64(c-'0')
		seen = true
	}
	return v, seen
}
