package linkgram

import (
	"math/bits"
	"sort"
	"strings"
	"sync"

	"repro/internal/pos"
)

// idioms are multi-word expressions parsed as a single word. Each maps
// the lower-cased joined form to the disjunct family it behaves as.
var idioms = map[string]string{
	"as well as":  "conj",
	"status post": "prep",
}

// idiomSeq is one idiom pre-split into its word sequence, so matching a
// token position never re-runs strings.Fields over the idioms map.
type idiomSeq struct {
	parts  []string
	family string
}

// idiomSeqs is the idiom table in matching order: longest first, then
// alphabetical, so overlapping idioms would resolve deterministically.
var idiomSeqs = buildIdiomSeqs()

func buildIdiomSeqs() []idiomSeq {
	out := make([]idiomSeq, 0, len(idioms))
	for idiom, family := range idioms {
		out = append(out, idiomSeq{parts: strings.Fields(idiom), family: family})
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].parts) != len(out[j].parts) {
			return len(out[i].parts) > len(out[j].parts)
		}
		return strings.Join(out[i].parts, " ") < strings.Join(out[j].parts, " ")
	})
	return out
}

// idiomCands caches the candidate list of each idiom family against the
// global interner; read-only after init.
var idiomCands = buildIdiomCands()

func buildIdiomCands() map[string]*candList {
	b := &dictBuilder{in: globalIntern}
	out := map[string]*candList{}
	for _, family := range []string{"conj", "prep"} {
		out[family] = newCandList(b.idiomDisjuncts(family))
	}
	return out
}

// candList is one cached candidate list: a word's disjuncts in
// dictionary order, plus what the parser's first pruning pass reads.
// lunion and runion hold every name on any left and any right list;
// lbits[c] (rbits[c]) is a bit set over ds of the disjuncts whose left
// (right) list uses name c, nil when none does. Shared across parses
// and goroutines, so never mutated after newCandList.
type candList struct {
	ds             []disjunct
	lunion, runion uint32
	lbits, rbits   [nConn][]uint64
}

// newCandList indexes ds; nil for a word with no disjuncts.
func newCandList(ds []disjunct) *candList {
	if len(ds) == 0 {
		return nil
	}
	cl := &candList{ds: ds}
	for i, d := range ds {
		cl.lunion |= d.lmask
		cl.runion |= d.rmask
		markNames(&cl.lbits, d.lmask, i, len(ds))
		markNames(&cl.rbits, d.rmask, i, len(ds))
	}
	return cl
}

// markNames sets bit i in sets[c] for every name c in mask, allocating
// a set of n bits on a name's first use.
func markNames(sets *[nConn][]uint64, mask uint32, i, n int) {
	for ; mask != 0; mask &= mask - 1 {
		c := bits.TrailingZeros32(mask)
		if sets[c] == nil {
			sets[c] = make([]uint64, (n+63)/64)
		}
		sets[c][i/64] |= 1 << (i % 64)
	}
}

// orNames ORs into dst the sets of every name in mask.
func orNames(dst []uint64, sets *[nConn][]uint64, mask uint32) {
	for ; mask != 0; mask &= mask - 1 {
		for k, w := range sets[bits.TrailingZeros32(mask)] {
			dst[k] |= w
		}
	}
}

// candKey keys the process-wide disjunct candidate cache. Words whose
// disjuncts depend only on their tag collapse to word "", so the cache
// stays a couple dozen entries regardless of vocabulary size.
type candKey struct {
	word string // lower-cased word-dispatched word, or ""
	tag  pos.Tag
}

// wordEntries is the single source of truth for words that carry their
// own dictionary entry independent of tag: disjunctsFor dispatches
// through it and cachedDisjuncts keys the cache by membership in it, so
// the two can never drift apart.
var wordEntries = map[string]func(b *dictBuilder) []disjunct{
	",": (*dictBuilder).conjDisjuncts, ";": (*dictBuilder).conjDisjuncts,
	"and": (*dictBuilder).conjDisjuncts, "or": (*dictBuilder).conjDisjuncts,
	"but": (*dictBuilder).conjDisjuncts, "nor": (*dictBuilder).conjDisjuncts,
	"ago": (*dictBuilder).agoDisjuncts,
	"to":  (*dictBuilder).toDisjuncts,
	"who": (*dictBuilder).relPronounDisjuncts, "which": (*dictBuilder).relPronounDisjuncts,
	"that": (*dictBuilder).relPronounDisjuncts,
}

// candCache maps candKey → *candList built once per (word, tag) against
// the global interner.
var candCache sync.Map

// cachedDisjuncts returns the candidate list for a lower-cased word and
// tag, building and caching it on first use; nil when the word has no
// disjuncts.
func cachedDisjuncts(lower string, tag pos.Tag) *candList {
	k := candKey{word: lower, tag: tag}
	if _, ok := wordEntries[lower]; !ok {
		k.word = ""
	}
	if v, ok := candCache.Load(k); ok {
		return v.(*candList)
	}
	b := &dictBuilder{in: globalIntern}
	v, _ := candCache.LoadOrStore(k, newCandList(b.disjunctsFor(lower, tag)))
	return v.(*candList)
}

// dictBuilder accumulates the disjunct sets for one dictionary build.
type dictBuilder struct {
	in *interner
}

// dis builds one disjunct from nearest-first connector name lists.
func (b *dictBuilder) dis(left, right []connID) disjunct {
	return newDisjunct(b.in.fromNearFirst(left), b.in.fromNearFirst(right))
}

// cat concatenates name lists.
func cat(lists ...[]connID) []connID {
	var out []connID
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// disjunctsFor returns the candidate disjuncts for a word given its tag.
// The generation enumerates role × modifier × extra combinations; the
// parser's directional pruning discards, per sentence, every combination
// with a connector that no word on the required side offers.
func (b *dictBuilder) disjunctsFor(word string, tag pos.Tag) []disjunct {
	w := strings.ToLower(word)
	if entry, ok := wordEntries[w]; ok {
		return entry(b)
	}

	switch {
	case tag == pos.DT || tag == pos.PRS:
		return []disjunct{
			b.dis(nil, []connID{cD}),
			b.dis([]connID{cEN}, []connID{cD}),
		}
	case tag == pos.CD:
		return b.numberDisjuncts()
	case tag.IsNoun():
		return b.nounDisjuncts()
	case tag == pos.PRP:
		return []disjunct{
			b.dis(nil, []connID{cS}),
			b.dis([]connID{cO}, nil),
			b.dis([]connID{cJ}, nil),
		}
	case tag == pos.VBZ || tag == pos.VBD || tag == pos.VBP:
		return b.finiteVerbDisjuncts()
	case tag == pos.MD:
		return b.modalDisjuncts()
	case tag == pos.VB:
		return b.baseVerbDisjuncts()
	case tag == pos.VBN:
		return b.participleDisjuncts()
	case tag == pos.VBG:
		return b.gerundDisjuncts()
	case tag == pos.JJ:
		return b.adjectiveDisjuncts()
	case tag == pos.RB:
		return []disjunct{
			b.dis(nil, []connID{cE}),  // pre-verbal: "never smoked"
			b.dis([]connID{cMV}, nil), // post-verbal: "is currently"
			b.dis(nil, []connID{cEA}), // adjective modifier: "very significant"
			b.dis(nil, []connID{cEN}), // approximator: "about a year"
			b.dis([]connID{cCC}, nil), // fragment after comma: ", occasionally"
			b.dis([]connID{cMV}, []connID{cCO}),
		}
	case tag == pos.IN:
		return []disjunct{
			b.dis([]connID{cM}, []connID{cJ}),  // post-nominal: "pulse of 84"
			b.dis([]connID{cMV}, []connID{cJ}), // post-verbal: "quit in 1990"
			b.dis([]connID{cW}, []connID{cJ}),  // sentence-initial
			b.dis([]connID{cCC}, []connID{cJ}), // fragment head after comma
		}
	case tag == pos.EX:
		return []disjunct{b.dis(nil, []connID{cS})} // "There is no ..."
	default:
		return nil // UH, SYM: unconnectable; parser drops or fails
	}
}

// conjDisjuncts covers commas, semicolons and coordinating conjunctions:
// a CO link to the preceding phrase tail and a CC link to the following
// fragment head.
func (b *dictBuilder) conjDisjuncts() []disjunct {
	return []disjunct{
		b.dis([]connID{cCO}, []connID{cCC}),
		b.dis([]connID{cCC}, []connID{cCC}),
	}
}

// agoDisjuncts covers "ago": a T link back to its time noun plus the
// attachment of the whole time phrase.
func (b *dictBuilder) agoDisjuncts() []disjunct {
	return []disjunct{
		b.dis([]connID{cT, cMV}, nil),
		b.dis([]connID{cT, cM}, nil),
		b.dis([]connID{cT, cCC}, nil),
	}
}

// toDisjuncts covers infinitival "to".
func (b *dictBuilder) toDisjuncts() []disjunct {
	return []disjunct{b.dis([]connID{cI}, []connID{cI})}
}

// relPronounDisjuncts covers relative pronouns: links left to the head
// noun, right to the relative clause's verb as its subject.
func (b *dictBuilder) relPronounDisjuncts() []disjunct {
	return []disjunct{
		b.dis([]connID{cR}, []connID{cS}),
		b.dis(nil, []connID{cS}), // plain subject reading for "that/which"
	}
}

// nounDisjuncts enumerates noun roles. Left base: up to two A- modifiers
// (nearest), optional D-, optional EN-. Roles add a far-left or right
// connector; right extras add NM+/T+/M+ and a trailing CO+.
func (b *dictBuilder) nounDisjuncts() []disjunct {
	var out []disjunct
	for _, base := range leftBases() {
		// Modifier role: the noun itself modifies a following noun.
		out = append(out, b.dis(base, []connID{cA}))
		for _, extras := range rightExtras() {
			// Bare adjunct role: the noun hangs off a later word through
			// a right extra alone ("five years ago": years—T—ago).
			if len(extras) > 0 {
				out = append(out, b.dis(base, extras))
			}
			// Subject role. The CO+ may sit nearer than S+ when an
			// apposition interrupts: "Pulse, noted ..., was 96".
			out = append(out, b.dis(base, cat(extras, []connID{cS})))
			out = append(out, b.dis(base, cat(extras, []connID{cS, cCO})))
			out = append(out, b.dis(base, cat(extras, []connID{cCO, cS})))
			// Object role.
			out = append(out, b.dis(cat(base, []connID{cO}), extras))
			out = append(out, b.dis(cat(base, []connID{cO}), cat(extras, []connID{cCO})))
			// Preposition-object role.
			out = append(out, b.dis(cat(base, []connID{cJ}), extras))
			out = append(out, b.dis(cat(base, []connID{cJ}), cat(extras, []connID{cCO})))
			// Fragment head after comma/conjunction, and sentence head.
			out = append(out, b.dis(cat(base, []connID{cCC}), extras))
			out = append(out, b.dis(cat(base, []connID{cCC}), cat(extras, []connID{cCO})))
			out = append(out, b.dis(cat(base, []connID{cW}), extras))
			out = append(out, b.dis(cat(base, []connID{cW}), cat(extras, []connID{cCO})))
		}
	}
	return out
}

// leftBases enumerates noun left-modifier prefixes, nearest-first.
func leftBases() [][]connID {
	mods := [][]connID{nil, {cA}, {cA, cA}, {cA, cA, cA}}
	var out [][]connID
	for _, m := range mods {
		out = append(out, m)
		out = append(out, cat(m, []connID{cD}))
		out = append(out, cat(m, []connID{cD, cEN}))
		out = append(out, cat(m, []connID{cEN}))
	}
	return out
}

// rightExtras enumerates optional right-side noun attachments,
// nearest-first: a post-nominal number, a time link to "ago", a
// post-nominal preposition.
func rightExtras() [][]connID {
	return [][]connID{
		nil,
		{cNM},
		{cT},
		{cM},
		{cNM, cM},
		{cT, cM},
		{cM, cM},
		{cR},      // relative clause: "woman who underwent ..."
		{cM, cR},  // "woman in distress who ..."
		{cNM, cR}, // "Ms. 2 who ..."
	}
}

// idiomDisjuncts returns the disjuncts for an idiom family.
func (b *dictBuilder) idiomDisjuncts(family string) []disjunct {
	switch family {
	case "conj":
		return []disjunct{
			b.dis([]connID{cCO}, []connID{cCC}),
			b.dis([]connID{cCC}, []connID{cCC}),
		}
	case "prep":
		return []disjunct{
			b.dis([]connID{cM}, []connID{cJ}),
			b.dis([]connID{cMV}, []connID{cJ}),
			b.dis([]connID{cW}, []connID{cJ}),
			b.dis([]connID{cCC}, []connID{cJ}),
		}
	}
	return nil
}

// numberDisjuncts enumerates cardinal-number roles.
func (b *dictBuilder) numberDisjuncts() []disjunct {
	var out []disjunct
	// Determiner-like: "five years", "15 years", "four to seven features".
	out = append(out, b.dis(nil, []connID{cD}))
	out = append(out, b.dis([]connID{cEN}, []connID{cD}))
	// Value roles: object, prep object, post-nominal.
	for _, role := range []connID{cO, cJ, cNM} {
		out = append(out, b.dis([]connID{role}, nil))
		out = append(out, b.dis([]connID{role}, []connID{cCO}))
		out = append(out, b.dis([]connID{cEN, role}, nil))
		out = append(out, b.dis([]connID{cEN, role}, []connID{cCO}))
		out = append(out, b.dis([]connID{role}, []connID{cNM}))
		out = append(out, b.dis([]connID{role}, []connID{cNM, cCO}))
	}
	// Fragment head: "..., 15 years" handled by years; bare "15" heads:
	out = append(out, b.dis([]connID{cCC}, nil))
	out = append(out, b.dis([]connID{cCC}, []connID{cCO}))
	out = append(out, b.dis([]connID{cW}, nil))
	out = append(out, b.dis([]connID{cW}, []connID{cCO}))
	return out
}

// verbRights enumerates verb right-side variants: a complement, an
// optional MV+ on either side of it, and an optional trailing CO+. The
// cNone complement stands for "no complement".
func verbRights(complements ...connID) [][]connID {
	var out [][]connID
	for _, c := range complements {
		var bases [][]connID
		if c == cNone {
			bases = [][]connID{nil, {cMV}, {cMV, cMV}}
		} else {
			bases = [][]connID{
				{c},
				{cMV, c},
				{c, cMV},
				{c, cMV, cMV},
			}
		}
		for _, bb := range bases {
			out = append(out, bb)
			out = append(out, cat(bb, []connID{cCO}))
		}
	}
	return out
}

// verbLefts enumerates finite-verb left-side variants: optional pre-verbal
// adverb, optional subject, optional wall.
func verbLefts() [][]connID {
	return [][]connID{
		{cS},
		{cS, cW},
		{cW},
		{cE, cS},
		{cE, cS, cW},
		{cE, cW},
		{cCC}, // fragment verb after comma: ", reveals ..."
		{cE, cCC},
		{cS, cCC}, // clause after comma with its own subject: ", her pulse was noted"
		{cCC, cS}, // subject separated by an apposition: "Pulse, noted ..., was 96"
	}
}

func (b *dictBuilder) finiteVerbDisjuncts() []disjunct {
	var out []disjunct
	rights := verbRights(cNone, cO, cPa, cPP, cI)
	for _, l := range verbLefts() {
		for _, r := range rights {
			out = append(out, b.dis(l, r))
		}
	}
	return out
}

func (b *dictBuilder) modalDisjuncts() []disjunct {
	var out []disjunct
	for _, l := range verbLefts() {
		for _, r := range verbRights(cI) {
			out = append(out, b.dis(l, r))
		}
	}
	return out
}

func (b *dictBuilder) baseVerbDisjuncts() []disjunct {
	var out []disjunct
	rights := verbRights(cNone, cO, cPa)
	lefts := [][]connID{{cI}, {cE, cI}}
	for _, l := range lefts {
		for _, r := range rights {
			out = append(out, b.dis(l, r))
		}
	}
	return out
}

func (b *dictBuilder) participleDisjuncts() []disjunct {
	var out []disjunct
	rights := verbRights(cNone, cO)
	lefts := [][]connID{{cPP}, {cE, cPP}, {cCC}, {cW}}
	for _, l := range lefts {
		for _, r := range rights {
			out = append(out, b.dis(l, r))
		}
	}
	return out
}

func (b *dictBuilder) gerundDisjuncts() []disjunct {
	var out []disjunct
	rights := verbRights(cNone, cO)
	lefts := [][]connID{{cO}, {cJ}, {cW}, {cCC}, {cS, cW}, {cS}}
	for _, l := range lefts {
		for _, r := range rights {
			out = append(out, b.dis(l, r))
		}
	}
	return out
}

func (b *dictBuilder) adjectiveDisjuncts() []disjunct {
	out := []disjunct{
		// Attributive.
		b.dis(nil, []connID{cA}),
		b.dis([]connID{cEA}, []connID{cA}),
	}
	// Predicative and fragment-head roles, with optional post-modifier
	// preposition and trailing comma link.
	for _, l := range [][]connID{{cPa}, {cEA, cPa}, {cCC}, {cW}} {
		for _, r := range [][]connID{nil, {cM}, {cCO}, {cM, cCO}, {cM, cM}} {
			out = append(out, b.dis(l, r))
		}
	}
	return out
}
