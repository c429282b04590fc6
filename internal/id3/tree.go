// Package id3 implements the ID3 decision tree of Quinlan (1986) over
// Boolean word-presence features, together with the NLP feature
// extraction options of Zhou et al. §3.3 (part-of-speech selection,
// sentence-constituent selection, head-word-only, lemma) and the numeric
// Boolean threshold features the paper proposes for numeric categorical
// fields such as alcohol use. The paper's evaluation protocol, k-fold
// cross validation with shuffled rounds, lives in internal/classify.
package id3

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Example is one training or test case: Boolean features and a class
// label.
type Example struct {
	Features map[string]bool
	Class    string
}

// Tree is a trained ID3 decision tree.
type Tree struct {
	// Leaf fields.
	leaf  bool
	class string
	// Internal fields.
	feature string
	yes, no *Tree
}

// Train builds an ID3 tree: at each node the feature with maximum
// information gain (mutual information with the class) splits the
// examples; recursion stops on purity, zero gain, or feature exhaustion,
// where the majority class becomes a leaf.
func Train(examples []Example) *Tree {
	return trainCriterion(examples, featureUniverse(examples), gain)
}

// Classify returns the class for the given features. An untrained or
// empty tree returns "".
func (t *Tree) Classify(features map[string]bool) string {
	for !t.leaf {
		if features[t.feature] {
			t = t.yes
		} else {
			t = t.no
		}
	}
	return t.class
}

// FeatureCount returns the number of distinct features tested anywhere in
// the tree (the quantity the paper reports as "the number of features
// used in the decision tree ranges from four to seven").
func (t *Tree) FeatureCount() int {
	set := map[string]bool{}
	t.collectFeatures(set)
	return len(set)
}

// Features returns the distinct features tested in the tree, sorted.
func (t *Tree) Features() []string {
	set := map[string]bool{}
	t.collectFeatures(set)
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

func (t *Tree) collectFeatures(set map[string]bool) {
	if t == nil || t.leaf {
		return
	}
	set[t.feature] = true
	t.yes.collectFeatures(set)
	t.no.collectFeatures(set)
}

// Depth returns the maximum depth of the tree (leaf-only tree: 0).
func (t *Tree) Depth() int {
	if t == nil || t.leaf {
		return 0
	}
	dy, dn := t.yes.Depth(), t.no.Depth()
	if dy > dn {
		return dy + 1
	}
	return dn + 1
}

// String renders the tree as an indented rule list, for inspection.
func (t *Tree) String() string {
	var b strings.Builder
	t.render(&b, 0)
	return b.String()
}

func (t *Tree) render(b *strings.Builder, depth int) {
	ind := strings.Repeat("  ", depth)
	if t.leaf {
		fmt.Fprintf(b, "%s→ %s\n", ind, t.class)
		return
	}
	fmt.Fprintf(b, "%shas(%s)?\n", ind, t.feature)
	fmt.Fprintf(b, "%s yes:\n", ind)
	t.yes.render(b, depth+1)
	fmt.Fprintf(b, "%s no:\n", ind)
	t.no.render(b, depth+1)
}

// featureUniverse collects all feature names, sorted for determinism.
func featureUniverse(examples []Example) []string {
	set := map[string]bool{}
	for _, e := range examples {
		for f := range e.Features {
			set[f] = true
		}
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// majority returns the majority class (ties broken alphabetically for
// determinism) and whether the set is pure.
func majority(examples []Example) (string, bool) {
	counts := map[string]int{}
	for _, e := range examples {
		counts[e.Class]++
	}
	best, bestN := "", -1
	for c, n := range counts {
		if n > bestN || (n == bestN && c < best) {
			best, bestN = c, n
		}
	}
	return best, len(counts) == 1
}

// entropy of the class distribution.
func entropy(examples []Example) float64 {
	counts := map[string]int{}
	for _, e := range examples {
		counts[e.Class]++
	}
	n := float64(len(examples))
	h := 0.0
	for _, c := range counts {
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}

// gain is the information gain (mutual information) of feature f with the
// class, the split criterion of ID3: "Information Gain (Mutual
// Information) of the predictor and dependent variable is a good measure
// of the predictor's discriminating ability."
func gain(examples []Example, f string) float64 {
	var yes, no []Example
	for _, e := range examples {
		if e.Features[f] {
			yes = append(yes, e)
		} else {
			no = append(no, e)
		}
	}
	n := float64(len(examples))
	h := entropy(examples)
	h -= float64(len(yes)) / n * entropy(yes)
	h -= float64(len(no)) / n * entropy(no)
	return h
}
