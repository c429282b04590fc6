package pos

import (
	"strings"

	"repro/internal/textproc"
)

// TaggedToken pairs a token with its part-of-speech tag.
type TaggedToken struct {
	textproc.Token
	Tag Tag
}

// TagSentence tags every token of the sentence and increments the
// process-wide tag pass counter. The pipeline is: (1) lexicon lookup,
// (2) morphological suffix guesser for unknown words, (3) a pass of
// contextual repair rules in the style of Brill's transformation-based
// tagger.
func TagSentence(s textproc.Sentence) []TaggedToken {
	tagPasses.Add(1)
	out := make([]TaggedToken, len(s.Tokens))
	for i, tok := range s.Tokens {
		out[i] = TaggedToken{Token: tok, Tag: initialTag(tok)}
	}
	applyContextRules(out)
	return out
}

// TagSection returns the POS tagging of sentence i of an analyzed
// section, computing it at most once per Document: every consumer of the
// shared analysis — numeric extraction, term extraction, feature
// extraction — sees the same cached tagging. Safe for concurrent use.
func TagSection(sec *textproc.DocSection, i int) []TaggedToken {
	sents := sec.Sentences()
	v := sec.Derived(i).Tags(func() any { return TagSentence(sents[i]) })
	tagged, _ := v.([]TaggedToken)
	return tagged
}

// initialTag assigns the most likely tag from the lexicon or the suffix
// guesser.
func initialTag(tok textproc.Token) Tag {
	switch tok.Kind {
	case textproc.Number:
		return CD
	case textproc.Punct, textproc.Symbol:
		return SYM
	}
	w := strings.ToLower(tok.Text)
	if properNouns[strings.TrimSuffix(w, ".")] {
		return NNP
	}
	if t, ok := wordTags[w]; ok {
		return t
	}
	// Possessive: "patient's".
	if strings.HasSuffix(w, "'s") {
		return NN
	}
	// All-caps short tokens are clinical abbreviations: "PERRLA", "S1".
	if tok.Text == strings.ToUpper(tok.Text) && len(tok.Text) <= 6 {
		return NNP
	}
	return suffixTag(w)
}

// suffixTag guesses a tag for an unknown word from its suffix. Order
// matters: longer, more specific suffixes first.
func suffixTag(w string) Tag {
	switch {
	case hasAny(w, "ectomy", "ostomy", "otomy", "plasty", "oscopy", "graphy", "ology", "itis", "osis", "oma", "emia", "uria", "pathy", "algia", "megaly", "rrhea", "iasis"):
		return NN // medical procedure/condition suffixes
	case hasAny(w, "ness", "ment", "tion", "sion", "ship", "ance", "ence", "ity", "ism", "ure", "age", "cy"):
		return NN
	case strings.HasSuffix(w, "ly"):
		return RB
	case hasAny(w, "able", "ible", "ous", "ive", "ical", "ary", "ful", "less", "ish", "ant", "ent", "al", "ic"):
		return JJ
	case strings.HasSuffix(w, "ing"):
		return VBG
	case strings.HasSuffix(w, "ed"):
		return VBN
	case strings.HasSuffix(w, "ies"), strings.HasSuffix(w, "es"):
		return NNS
	case strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "ss") && !strings.HasSuffix(w, "us") && !strings.HasSuffix(w, "is"):
		return NNS
	case strings.HasSuffix(w, "er"), strings.HasSuffix(w, "or"):
		return NN
	default:
		return NN
	}
}

func hasAny(w string, suffixes ...string) bool {
	for _, s := range suffixes {
		if strings.HasSuffix(w, s) && len(w) > len(s)+1 {
			return true
		}
	}
	return false
}

// applyContextRules runs Brill-style contextual repairs in place.
func applyContextRules(toks []TaggedToken) {
	// Number of content tokens (non-punctuation), for single-word rules.
	content := 0
	for _, t := range toks {
		if t.Tag != SYM {
			content++
		}
	}
	for i := range toks {
		w := strings.ToLower(toks[i].Text)
		switch {
		// DT/PRP$ + VBN/VBD → JJ when followed by a noun:
		// "a modified radical mastectomy", "her denied history".
		case (toks[i].Tag == VBN || toks[i].Tag == VBD) && i > 0 && i+1 < len(toks) &&
			(toks[i-1].Tag == DT || toks[i-1].Tag == PRS || toks[i-1].Tag == JJ) &&
			nounish(toks[i+1].Tag):
			toks[i].Tag = JJ

		// VBG after DT or JJ and before a noun is an adjective/gerund
		// modifier: "a screening mammogram".
		case toks[i].Tag == VBG && i > 0 && i+1 < len(toks) &&
			(toks[i-1].Tag == DT || toks[i-1].Tag == JJ) && nounish(toks[i+1].Tag):
			toks[i].Tag = JJ

		// Noun directly after "to" is actually a base verb: "to smoke".
		case toks[i].Tag == NN && i > 0 && toks[i-1].Tag == TO && verbCapable(w):
			toks[i].Tag = VB

		// "no" before a noun is a determiner (already DT); "no" or "none"
		// standing alone as an answer is an interjection.
		case (w == "no" || w == "none") && content == 1:
			toks[i].Tag = UH

		// Past tense directly after an auxiliary have/be form is a past
		// participle: "has never smoked", "was referred".
		case toks[i].Tag == VBD && precededByAux(toks, i) && !isAuxWord(w):
			toks[i].Tag = VBN

		// "about" before a number is an adverb ("about a year ago" keeps
		// IN; "about 98.3" is approximator RB).
		case w == "about" && i+1 < len(toks) && toks[i+1].Tag == CD:
			toks[i].Tag = RB

		// Past participle after forms of have: keep VBN. After forms of
		// be with no following noun: passive VBN — already fine. But VBD
		// after a pronoun subject stays VBD.
		case toks[i].Tag == VBN && i > 0 && isPronounOrNoun(toks[i-1].Tag) && !precededByAux(toks, i):
			toks[i].Tag = VBD
		}
	}
}

func nounish(t Tag) bool { return t.IsNoun() }

func isPronounOrNoun(t Tag) bool { return t == PRP || t.IsNoun() }

// verbCapable reports whether a word plausibly has a verb reading (used
// after "to").
var verbBases = map[string]bool{
	"smoke": true, "drink": true, "quit": true, "stop": true,
	"return": true, "follow": true, "continue": true, "schedule": true,
	"discuss": true, "proceed": true, "undergo": true, "obtain": true,
	"rule": true, "evaluate": true, "auscultation": false,
}

func verbCapable(w string) bool { return verbBases[w] }

// isAuxWord reports whether w is itself an auxiliary form of be/have/do.
func isAuxWord(w string) bool {
	switch w {
	case "has", "have", "had", "is", "are", "was", "were", "been", "be", "did", "does", "do":
		return true
	}
	return false
}

// precededByAux reports whether toks[i] is preceded (within 3 tokens) by
// an auxiliary have/be form, making a VBN reading correct.
func precededByAux(toks []TaggedToken, i int) bool {
	for j := i - 1; j >= 0 && j >= i-3; j-- {
		w := strings.ToLower(toks[j].Text)
		switch w {
		case "has", "have", "had", "is", "are", "was", "were", "been", "be":
			return true
		}
	}
	return false
}
