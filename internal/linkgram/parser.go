package linkgram

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"repro/internal/pos"
	"repro/internal/textproc"
)

// Link is one typed link of a linkage between two parse words, identified
// by their indices into Linkage.Words.
type Link struct {
	Left, Right int
	Label       string
}

// ParseWord is one word that took part in the parse, with a back-pointer
// to the token it came from in the original sentence.
type ParseWord struct {
	Text       string
	Tag        pos.Tag
	TokenIndex int // index into the sentence's token slice; -1 for the wall
}

// Linkage is a complete planar, connected linkage of a sentence.
type Linkage struct {
	Words []ParseWord // Words[0] is the left wall
	Links []Link
}

// ErrNoLinkage is returned when the sentence has no complete linkage; the
// caller is expected to fall back to the pattern approach, exactly as the
// paper does for unparseable fragments.
var ErrNoLinkage = errors.New("linkgram: no complete linkage")

// MaxWords bounds parser input length; longer sentences are rejected
// immediately (the extractor then uses the pattern fallback).
const MaxWords = 28

// Parse parses a tagged sentence and returns its first complete linkage.
func Parse(tagged []pos.TaggedToken) (*Linkage, error) {
	parsePasses.Add(1)
	p := newParser(tagged)
	if p == nil {
		return nil, ErrNoLinkage
	}
	defer p.release()
	if !p.feasible(0, len(p.words), wallList, nil) {
		return nil, ErrNoLinkage
	}
	var links []Link
	if !p.build(0, len(p.words), wallList, nil, &links) {
		return nil, ErrNoLinkage
	}
	// The parser scratch is recycled; the returned Linkage gets its own
	// copy of the word list.
	words := make([]ParseWord, len(p.words))
	copy(words, p.words)
	return &Linkage{Words: words, Links: p.relabel(links)}, nil
}

// ParseSentence tags and parses a textproc sentence in one call.
func ParseSentence(s textproc.Sentence) (*Linkage, error) {
	return Parse(pos.TagSentence(s))
}

// ParseSection parses sentence i of an analyzed section at most once per
// Document, memoizing both the linkage and the ErrNoLinkage outcome: all
// consumers of the shared analysis see the same result, and an
// unparseable sentence pays the parse attempt exactly once. Tagging goes
// through pos.TagSection, so the sentence is also tagged at most once.
// Safe for concurrent use.
func ParseSection(sec *textproc.DocSection, i int) (*Linkage, error) {
	v, err := sec.Derived(i).Parse(func() (any, error) {
		lk, err := Parse(pos.TagSection(sec, i))
		if err != nil {
			return nil, err
		}
		return lk, nil
	})
	if err != nil {
		return nil, err
	}
	lk, _ := v.(*Linkage)
	return lk, nil
}

// parser holds the per-parse scratch: parse words, their cached
// candidate lists, the pruned candidates and the arena they live in,
// the survivors grouped by head connector, and the DP memo. Instances
// are recycled through parserPool; newParser resets them.
type parser struct {
	words   []ParseWord  // index 0 is the wall; parse positions == indices
	src     []*candList  // each word's cached candidates; nil for the wall
	cands   [][]disjunct // each word's pruning survivors, in candidate order
	arena   []disjunct   // backing for cands
	reject  []uint64     // first pruning pass: bit set of rejected candidates
	byLeft  headIndex    // survivors grouped by farthest left connector
	byRight headIndex    // survivors grouped by farthest right connector
	memo    [][]memoEnt
	stride  int // memo row width: len(words)+1 (R ranges to the sentinel)
}

// headIndex groups each word's pruning survivors by the name of their
// farthest connector on one side (cNone for an empty list), keeping
// candidate order inside each group: group c of word w is
// ds[off[w][c]:off[w][c+1]]. The DP links a region boundary's farthest
// connector to a word's farthest connector on the facing side, so it
// only ever visits one group per word.
type headIndex struct {
	ds  []disjunct
	off [][nConn + 1]int32
}

// build fills the index from cands with a stable counting sort; head
// selects the side.
func (h *headIndex) build(cands [][]disjunct, head func(disjunct) *node) {
	total := 0
	for _, ds := range cands {
		total += len(ds)
	}
	h.ds = slices.Grow(h.ds[:0], total)[:total]
	h.off = slices.Grow(h.off[:0], len(cands))[:len(cands)]
	pos := int32(0)
	for w, ds := range cands {
		var count [nConn]int32
		for _, d := range ds {
			count[headName(head(d))]++
		}
		off := &h.off[w]
		for c, n := range count {
			off[c] = pos
			pos += n
		}
		off[nConn] = pos
		next := *off
		for _, d := range ds {
			c := headName(head(d))
			h.ds[next[c]] = d
			next[c]++
		}
	}
}

// group returns word w's survivors whose farthest connector is named c.
func (h *headIndex) group(w int, c connID) []disjunct {
	off := &h.off[w]
	return h.ds[off[c]:off[c+1]]
}

func leftHead(d disjunct) *node  { return d.left }
func rightHead(d disjunct) *node { return d.right }

// memoEnt is one memoized feasibility answer for a region (L, R): the
// remaining connector-list IDs of the boundary words and the result. The
// region's entries live in a small bucket scanned linearly — the dense
// (L,R)-indexed replacement for the old map[memoKey]bool.
type memoEnt struct {
	le, re int32
	val    bool
}

// memoKey keys the linkage-counting memo (count.go), which keeps a map:
// counting is a diagnostic path, not the extraction hot path.
type memoKey struct {
	l, r   int16
	le, re int32
}

var parserPool = sync.Pool{New: func() any { return new(parser) }}

// release returns the parser scratch to the pool.
func (p *parser) release() {
	parserPool.Put(p)
}

// newParser prepares parse words, candidate disjuncts, pruning and the
// head indexes. It returns nil when the sentence is unparseable a
// priori: an unconnectable word, no words or too many, or a word that
// pruning leaves without a disjunct.
func newParser(tagged []pos.TaggedToken) *parser {
	p := parserPool.Get().(*parser)
	p.words = append(p.words[:0], ParseWord{Text: "LEFT-WALL", TokenIndex: -1})
	p.src = append(p.src[:0], nil) // the wall's connector is wallList
	for i := 0; i < len(tagged); i++ {
		t := tagged[i]
		// Multi-word idioms parse as one word ("as well as" behaves as a
		// conjunction).
		if family, span := matchIdiom(tagged, i); span > 0 {
			joined := tagged[i].Text
			for _, xt := range tagged[i+1 : i+span] {
				joined += " " + xt.Text
			}
			p.words = append(p.words, ParseWord{Text: joined, Tag: t.Tag, TokenIndex: i})
			p.src = append(p.src, idiomCands[family])
			i += span - 1
			continue
		}
		switch t.Kind {
		case textproc.Punct, textproc.Symbol:
			// Keep only coordination punctuation; drop the rest (final
			// periods, quotes, parens).
			if t.Text != "," && t.Text != ";" {
				continue
			}
		}
		cl := cachedDisjuncts(strings.ToLower(t.Text), t.Tag)
		if cl == nil {
			// A word with no connector candidates (interjections) makes a
			// full linkage impossible.
			if t.Kind == textproc.Word || t.Kind == textproc.Number {
				p.release()
				return nil
			}
			continue
		}
		p.words = append(p.words, ParseWord{Text: t.Text, Tag: t.Tag, TokenIndex: i})
		p.src = append(p.src, cl)
	}
	if len(p.words) <= 1 || len(p.words) > MaxWords || !p.prune() {
		p.release()
		return nil
	}
	p.byLeft.build(p.cands, leftHead)
	p.byRight.build(p.cands, rightHead)
	p.resetMemo()
	return p
}

// resetMemo sizes the dense (L, R) bucket table for the current word
// count and empties every bucket, keeping their backing arrays.
func (p *parser) resetMemo() {
	p.stride = len(p.words) + 1
	n := p.stride * p.stride
	if cap(p.memo) < n {
		p.memo = make([][]memoEnt, n)
		return
	}
	p.memo = p.memo[:n]
	for i := range p.memo {
		p.memo[i] = p.memo[i][:0]
	}
}

// matchIdiom reports the idiom family and token span when the tokens at
// position i start a known multi-word idiom.
func matchIdiom(tagged []pos.TaggedToken, i int) (string, int) {
	for _, seq := range idiomSeqs {
		if i+len(seq.parts) > len(tagged) {
			continue
		}
		ok := true
		for j, part := range seq.parts {
			if !strings.EqualFold(tagged[i+j].Text, part) {
				ok = false
				break
			}
		}
		if ok {
			return seq.family, len(seq.parts)
		}
	}
	return "", 0
}

// prune removes every disjunct that no complete linkage can use, by
// Sleator and Temperley's directional rule: a left connector of word i
// must be matched by a right connector on some word left of i (the wall
// offers W), and a right connector of word i by a left connector on
// some word right of i. Passes repeat until no word's name unions
// change. The first pass rejects, per word, the OR of the cached
// per-name bit sets of every name the required side lacks, and copies
// the survivors into the arena in candidate order (cached lists are
// immutable); later passes filter the arena in place. prune reports
// false as soon as a word has no disjunct left: the sentence then has
// no linkage.
func (p *parser) prune() bool {
	n := len(p.words)
	// lu[i] and ru[i] are the names on word i's surviving left and right
	// lists; before[i] is what words left of i offer rightward, after[i]
	// what words right of i offer leftward.
	var lu, ru, before, after [MaxWords]uint32
	ru[0] = 1 << cW
	for i := 1; i < n; i++ {
		lu[i], ru[i] = p.src[i].lunion, p.src[i].runion
	}
	p.cands = append(p.cands[:0], nil) // the wall
	p.arena = p.arena[:0]
	for pass := 0; ; pass++ {
		var acc uint32
		for i := 0; i < n; i++ {
			before[i] = acc
			acc |= ru[i]
		}
		acc = 0
		for i := n - 1; i >= 0; i-- {
			after[i] = acc
			acc |= lu[i]
		}
		changed := false
		for i := 1; i < n; i++ {
			var kept []disjunct
			if pass == 0 {
				kept = p.firstPass(p.src[i], before[i], after[i])
				p.cands = append(p.cands, kept)
			} else {
				kept = p.cands[i][:0]
				for _, d := range p.cands[i] {
					if d.lmask&^before[i] == 0 && d.rmask&^after[i] == 0 {
						kept = append(kept, d)
					}
				}
				p.cands[i] = kept
			}
			if len(kept) == 0 {
				return false
			}
			var l, r uint32
			for _, d := range kept {
				l |= d.lmask
				r |= d.rmask
			}
			if l != lu[i] || r != ru[i] {
				lu[i], ru[i] = l, r
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
}

// firstPass appends to the arena the disjuncts of cl whose left names
// all appear in before and right names all appear in after, in
// candidate order, and returns them.
func (p *parser) firstPass(cl *candList, before, after uint32) []disjunct {
	start := len(p.arena)
	badL, badR := cl.lunion&^before, cl.runion&^after
	if badL|badR == 0 {
		p.arena = append(p.arena, cl.ds...)
	} else {
		rej := append(p.reject[:0], make([]uint64, (len(cl.ds)+63)/64)...)
		orNames(rej, &cl.lbits, badL)
		orNames(rej, &cl.rbits, badR)
		for k, w := range rej {
			for keep := ^w; keep != 0; keep &= keep - 1 {
				j := k*64 + bits.TrailingZeros64(keep)
				if j >= len(cl.ds) {
					break
				}
				p.arena = append(p.arena, cl.ds[j])
			}
		}
		p.reject = rej
	}
	// Cap the slice at its end so later words' appends to the arena can
	// never alias this word's survivors.
	return p.arena[start:len(p.arena):len(p.arena)]
}

// feasible implements the Sleator–Temperley region count as a boolean:
// can the region strictly between words L and R be completed, where le is
// the list of L's remaining right connectors (farthest-first) and re is
// the list of R's remaining left connectors (farthest-first)? R ==
// len(words) is the right sentinel with no connectors.
func (p *parser) feasible(L, R int, le, re *node) bool {
	if L+1 == R {
		return le == nil && re == nil
	}
	bi := L*p.stride + R
	li, ri := listID(le), listID(re)
	bucket := p.memo[bi]
	for k := range bucket {
		if bucket[k].le == li && bucket[k].re == ri {
			return bucket[k].val
		}
	}
	// Insert a false placeholder first (guards against impossible cycles),
	// then fill in the computed answer.
	idx := len(bucket)
	p.memo[bi] = append(bucket, memoEnt{le: li, re: ri})
	res := p.anyWord(L, R, le, re, nil)
	p.memo[bi][idx].val = res
	return res
}

// anyWord enumerates the splitting word W and its disjuncts. When out is
// non-nil it records the links of the first solution found and returns
// after completing it. The enumeration considers:
//
//	case A: W links to L via le.head ↔ d.left.head, then either also links
//	        to R (A1) or not (A2);
//	case B: le is empty and W links to R via d.right.head ↔ re.head, with
//	        the left sub-region closed by W's remaining left connectors.
//
// Choosing W as the target of le's farthest connector (case A) or, when
// le is empty, of re's farthest connector (case B) makes every linkage
// counted exactly once. Each case visits only the disjuncts whose head
// connector on the facing side matches (the head index), in candidate
// order, so the first solution is the one a scan of every disjunct
// would find.
func (p *parser) anyWord(L, R int, le, re *node, out *[]Link) bool {
	switch {
	case le != nil:
		// Case A: W ↔ L.
		for W := L + 1; W < R; W++ {
			for _, d := range p.byLeft.group(W, le.name) {
				if !p.feasible(L, W, le.next, d.left.next) {
					continue
				}
				// A1: W also links to R.
				if re != nil && d.right != nil && match(d.right.name, re.name) &&
					p.feasible(W, R, d.right.next, re.next) {
					if out == nil {
						return true
					}
					*out = append(*out,
						Link{Left: L, Right: W, Label: connNames[le.name]},
						Link{Left: W, Right: R, Label: connNames[re.name]})
					return p.build(L, W, le.next, d.left.next, out) && p.build(W, R, d.right.next, re.next, out)
				}
				// A2: W does not link directly to R.
				if p.feasible(W, R, d.right, re) {
					if out == nil {
						return true
					}
					*out = append(*out, Link{Left: L, Right: W, Label: connNames[le.name]})
					return p.build(L, W, le.next, d.left.next, out) && p.build(W, R, d.right, re, out)
				}
			}
		}
	case re != nil:
		// Case B: le empty; W links to R.
		for W := L + 1; W < R; W++ {
			for _, d := range p.byRight.group(W, re.name) {
				if p.feasible(L, W, nil, d.left) && p.feasible(W, R, d.right.next, re.next) {
					if out == nil {
						return true
					}
					*out = append(*out, Link{Left: W, Right: R, Label: connNames[re.name]})
					return p.build(L, W, nil, d.left, out) && p.build(W, R, d.right.next, re.next, out)
				}
			}
		}
	}
	return false
}

// build reconstructs the links of one feasible solution for the region.
// It must only be called on feasible regions.
func (p *parser) build(L, R int, le, re *node, out *[]Link) bool {
	if L+1 == R {
		return le == nil && re == nil
	}
	return p.anyWord(L, R, le, re, out)
}

// relabel rewrites link labels for presentation: an A link whose left word
// is a noun becomes AN (noun-noun modifier, as in Figure 1's
// Blood—AN—pressure), and links incident to the sentinel are dropped.
func (p *parser) relabel(links []Link) []Link {
	kept := links[:0]
	for _, l := range links {
		if l.Right >= len(p.words) {
			continue // sentinel link cannot occur, but be safe
		}
		if l.Label == connNames[cA] && p.words[l.Left].Tag.IsNoun() {
			l.Label = "AN"
		}
		kept = append(kept, l)
	}
	return kept
}

// WordIndexForToken returns the parse-word index for a sentence token
// index, or -1 when the token was dropped before parsing.
func (lk *Linkage) WordIndexForToken(tokenIndex int) int {
	for i, w := range lk.Words {
		if w.TokenIndex == tokenIndex {
			return i
		}
	}
	return -1
}

// String renders the linkage compactly: word list and links.
func (lk *Linkage) String() string {
	var b strings.Builder
	for i, w := range lk.Words {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(w.Text)
	}
	b.WriteByte('\n')
	for _, l := range lk.Links {
		fmt.Fprintf(&b, "%s(%s, %s) ", l.Label, lk.Words[l.Left].Text, lk.Words[l.Right].Text)
	}
	return strings.TrimSpace(b.String())
}
