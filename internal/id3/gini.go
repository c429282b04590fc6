package id3

// The paper motivates ID3's information-gain criterion with: "the ID3
// decision tree is supposed to use less features than other decision
// tree algorithms." TrainGini builds the same tree structure with the
// CART-style Gini impurity criterion instead, so the claim can be tested
// (ablation A6): compare FeatureCount and cross-validated accuracy.

// TrainGini builds a decision tree choosing splits by Gini impurity
// reduction.
func TrainGini(examples []Example) *Tree {
	feats := featureUniverse(examples)
	return trainCriterion(examples, feats, giniGain)
}

// trainCriterion is the shared recursive builder parameterized by the
// split criterion.
func trainCriterion(examples []Example, feats []string, criterion func([]Example, string) float64) *Tree {
	if len(examples) == 0 {
		return &Tree{leaf: true, class: ""}
	}
	maj, pure := majority(examples)
	if pure || len(feats) == 0 {
		return &Tree{leaf: true, class: maj}
	}
	best, bestGain := "", 0.0
	for _, f := range feats {
		if g := criterion(examples, f); g > bestGain+1e-12 {
			best, bestGain = f, g
		}
	}
	if best == "" {
		for _, f := range feats {
			yes := 0
			for _, e := range examples {
				if e.Features[f] {
					yes++
				}
			}
			if yes > 0 && yes < len(examples) {
				best = f
				break
			}
		}
	}
	if best == "" {
		return &Tree{leaf: true, class: maj}
	}
	var yes, no []Example
	for _, e := range examples {
		if e.Features[best] {
			yes = append(yes, e)
		} else {
			no = append(no, e)
		}
	}
	rest := make([]string, 0, len(feats)-1)
	for _, f := range feats {
		if f != best {
			rest = append(rest, f)
		}
	}
	t := &Tree{
		feature: best,
		yes:     trainCriterion(yes, rest, criterion),
		no:      trainCriterion(no, rest, criterion),
	}
	if t.yes.leaf && t.yes.class == "" {
		t.yes.class = maj
	}
	if t.no.leaf && t.no.class == "" {
		t.no.class = maj
	}
	return t
}

// gini computes the Gini impurity of the class distribution.
func gini(examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	counts := map[string]int{}
	for _, e := range examples {
		counts[e.Class]++
	}
	n := float64(len(examples))
	imp := 1.0
	for _, c := range counts {
		p := float64(c) / n
		imp -= p * p
	}
	return imp
}

// giniGain is the impurity reduction of splitting on feature f.
func giniGain(examples []Example, f string) float64 {
	var yes, no []Example
	for _, e := range examples {
		if e.Features[f] {
			yes = append(yes, e)
		} else {
			no = append(no, e)
		}
	}
	n := float64(len(examples))
	return gini(examples) -
		float64(len(yes))/n*gini(yes) -
		float64(len(no))/n*gini(no)
}
