package classify

import "repro/internal/id3"

// ID3 and Gini adapt the decision trees of internal/id3 to the Backend
// interface. The adapters are thin on purpose: training converts
// examples to the id3.Example shape (reusing the memoized feature maps,
// so no analysis re-runs) and prediction walks the tree over the
// instance's feature view.

// ID3 is the paper's backend: information-gain (mutual information)
// decision trees over Boolean link-grammar features.
type ID3 struct{}

// Name implements Backend.
func (ID3) Name() string { return "id3" }

// Params implements Backend.
func (ID3) Params() string { return "criterion=info-gain" }

// Train implements Backend.
func (ID3) Train(examples []Example) Model {
	return treeModel{name: "id3", tree: id3.Train(toID3(examples))}
}

// Gini is the CART-style variant: the same tree builder splitting by
// Gini impurity reduction (ablation A6).
type Gini struct{}

// Name implements Backend.
func (Gini) Name() string { return "gini" }

// Params implements Backend.
func (Gini) Params() string { return "criterion=gini" }

// Train implements Backend.
func (Gini) Train(examples []Example) Model {
	return treeModel{name: "gini", tree: id3.TrainGini(toID3(examples))}
}

// treeModel wraps a trained *id3.Tree as a Model.
type treeModel struct {
	name string
	tree *id3.Tree
}

func (m treeModel) Backend() string { return m.name }

func (m treeModel) Predict(in Instance) string { return m.tree.Classify(in.Features()) }

func (m treeModel) Size() int { return m.tree.FeatureCount() }

// toID3 converts examples to the id3 training shape. Feature maps are
// shared, not copied; id3.Train only reads them.
func toID3(examples []Example) []id3.Example {
	out := make([]id3.Example, len(examples))
	for i, e := range examples {
		out[i] = id3.Example{Features: e.Features(), Class: e.Class}
	}
	return out
}
