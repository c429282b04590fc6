// Package linkgram is a from-scratch link grammar parser for the clinical
// dictation sub-language, standing in for the CMU Link Grammar Parser 4.1
// used by Zhou et al. (ICDE 2005).
//
// A link grammar assigns each word a set of disjuncts; a disjunct is an
// ordered list of left-pointing and right-pointing connectors. A linkage
// is a set of typed links between word pairs such that every word uses
// exactly one disjunct completely, links do not cross (planarity), and
// the whole sentence is connected. The parser uses the classic
// Sleator–Temperley span dynamic program over regions (L, R, le, re).
//
// The extraction system uses two products of the parse, mirroring the
// paper: the linkage viewed as a weighted graph (shortest word-pair
// distance associates numbers with feature keywords, §3.1) and the
// constituent roles derived from link types (subject / verb / object /
// supplement, used by the ID3 feature extractor, §3.3).
package linkgram

import "sync"

// connID is a small integer identifier for a connector name. The hot DP
// loop compares connector IDs instead of strings; connNames maps an ID
// back to its presentation name for link labels and diagrams.
//
//	W   wall → sentence head (finite verb or fragment head)
//	S   subject → finite verb
//	O   verb/gerund → object
//	Pa  copula → predicate adjective
//	PP  have → past participle
//	I   modal/do/to → base verb
//	A   pre-nominal modifier → noun (relabeled AN when the modifier is a noun)
//	D   determiner/possessive/cardinal → noun
//	EN  approximator adverb → determiner target ("about a year")
//	E   pre-verbal adverb → verb
//	EA  adverb → adjective ("very significant")
//	MV  verb → post-verbal modifier (preposition, adverb, "ago")
//	M   noun/adjective → post-nominal preposition ("pulse of", "significant for")
//	J   preposition → its object
//	NM  noun → post-nominal number ("age 10", "gravida 4")
//	T   time noun → "ago"
//	CO  phrase tail → following comma/conjunction
//	CC  comma/conjunction → following fragment head
//	R   noun → relative pronoun ("woman who underwent ...")
type connID uint8

const (
	cNone connID = iota // zero value: no connector
	cW
	cS
	cO
	cPa
	cPP
	cI
	cA
	cD
	cEN
	cE
	cEA
	cMV
	cM
	cJ
	cNM
	cT
	cCO
	cCC
	cR
	nConn // number of connector IDs; sizes availability arrays
)

// Connector-name masks are uint32 bit sets with bit c for connID c;
// this line stops compiling if the names outgrow them.
var _ [32 - nConn]struct{}

// connNames maps a connID to its standard link grammar notation.
var connNames = [nConn]string{
	cW: "W", cS: "S", cO: "O", cPa: "Pa", cPP: "PP", cI: "I",
	cA: "A", cD: "D", cEN: "EN", cE: "E", cEA: "EA", cMV: "MV",
	cM: "M", cJ: "J", cNM: "NM", cT: "T", cCO: "CO", cCC: "CC", cR: "R",
}

// String returns the connector's presentation name.
func (c connID) String() string { return connNames[c] }

// node is one connector in an immutable, interned connector list. Lists
// are ordered FARTHEST-FIRST: the head connector links to the farthest
// word in its direction, which is the order the span DP consumes them in.
// Interning gives every distinct (name, next) pair a unique id, so suffix
// sharing keeps the memo table small. mask holds the names of this node
// and every node after it, set once when the node is interned.
type node struct {
	name connID
	mask uint32
	next *node
	id   int32
}

// interner dedupes connector lists. The process-wide instance behind the
// disjunct candidate cache is globalIntern; its lock is only taken while
// building dictionary entries on a cache miss, never in the parse DP.
type interner struct {
	mu    sync.Mutex
	byKey map[internKey]*node
	n     int32
}

type internKey struct {
	name connID
	next int32
}

func newInterner() *interner {
	return &interner{byKey: make(map[internKey]*node)}
}

// push prepends name to list (making name the new farthest connector) and
// returns the interned result.
func (in *interner) push(name connID, list *node) *node {
	k := internKey{name: name, next: listID(list)}
	in.mu.Lock()
	defer in.mu.Unlock()
	if n, ok := in.byKey[k]; ok {
		return n
	}
	in.n++
	n := &node{name: name, mask: 1<<name | listMask(list), next: list, id: in.n}
	in.byKey[k] = n
	return n
}

// fromNearFirst builds an interned farthest-first list from a
// nearest-first slice of connector names (the order dictionary entries
// are written in, matching standard link grammar notation).
func (in *interner) fromNearFirst(names []connID) *node {
	var list *node
	for _, name := range names { // nearest ends up deepest
		list = in.push(name, list)
	}
	return list
}

// globalIntern interns the connector lists of all cached dictionary
// entries, so node IDs are stable process-wide and candidate disjuncts
// can be shared across parses and goroutines.
var globalIntern = newInterner()

// wallList is the wall's single right-pointing W connector, interned once.
var wallList = globalIntern.fromNearFirst([]connID{cW})

func listID(n *node) int32 {
	if n == nil {
		return 0
	}
	return n.id
}

// listMask returns the set of names on a list; empty for nil.
func listMask(n *node) uint32 {
	if n == nil {
		return 0
	}
	return n.mask
}

// headName returns the name of a list's farthest connector, or cNone for
// an empty list.
func headName(n *node) connID {
	if n == nil {
		return cNone
	}
	return n.name
}

// match reports whether two connector names can link. Names match
// exactly; this grammar does not use subscript wildcards.
func match(a, b connID) bool { return a == b }

// disjunct is one way a word can connect: left and right connector lists,
// both farthest-first. lmask and rmask copy the lists' name masks, so
// pruning tests a disjunct without dereferencing its lists.
type disjunct struct {
	left, right  *node
	lmask, rmask uint32
}

func newDisjunct(left, right *node) disjunct {
	return disjunct{left: left, right: right, lmask: listMask(left), rmask: listMask(right)}
}

// listNames returns the connector names nearest-first, for debugging and
// tests.
func listNames(n *node) []string {
	var far []string
	for ; n != nil; n = n.next {
		far = append(far, connNames[n.name])
	}
	// reverse: stored farthest-first, report nearest-first
	for i, j := 0, len(far)-1; i < j; i, j = i+1, j-1 {
		far[i], far[j] = far[j], far[i]
	}
	return far
}
