package id3_test

import (
	"reflect"
	"testing"

	"repro/internal/classify"
	"repro/internal/id3"
)

// Cross validation of ID3 trees runs through classify.CrossValidate; these
// tests pin the tree builder's behavior under that harness.

// cvExamples is a miniature smoking task (never / former / current) over
// Boolean word features, in the id3.Example shape.
func cvExamples() []id3.Example {
	ex := func(class string, words ...string) id3.Example {
		feats := make(map[string]bool, len(words))
		for _, w := range words {
			feats[w] = true
		}
		return id3.Example{Features: feats, Class: class}
	}
	return []id3.Example{
		ex("never", "she", "have", "never", "smoke"),
		ex("never", "never", "smoke", "tobacco"),
		ex("never", "patient", "never", "smoke"),
		ex("never", "deny", "smoke"),
		ex("never", "deny", "tobacco", "use"),
		ex("never", "she", "deny", "smoke", "history"),
		ex("never", "no", "tobacco", "use"),
		ex("never", "no", "smoke", "history"),
		ex("former", "quit", "smoke", "year", "ago"),
		ex("former", "quit", "smoke"),
		ex("former", "she", "quit", "tobacco"),
		ex("former", "former", "smoker"),
		ex("former", "former", "smoker", "year"),
		ex("former", "stop", "smoke", "year"),
		ex("former", "stop", "smoke"),
		ex("current", "currently", "smoker"),
		ex("current", "currently", "smoke", "pack"),
		ex("current", "current", "smoker"),
		ex("current", "current", "smoker", "pack", "day"),
		ex("current", "smoke", "pack", "day"),
		ex("current", "she", "smoke", "pack", "daily"),
	}
}

// toClassify wraps id3 examples as classify examples over their feature maps.
func toClassify(exs []id3.Example) []classify.Example {
	out := make([]classify.Example, len(exs))
	for i, e := range exs {
		out[i] = classify.Example{Instance: classify.FeatureInstance(e.Features), Class: e.Class}
	}
	return out
}

func TestCrossValidateDeterministic(t *testing.T) {
	exs := toClassify(cvExamples())
	a := classify.CrossValidate(classify.ID3{}, exs, 5, 3, 42)
	b := classify.CrossValidate(classify.ID3{}, exs, 5, 3, 42)
	if a.Accuracy != b.Accuracy {
		t.Error("same seed must give same accuracy")
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed must give the same CV result")
	}
}

func TestCrossValidateDegenerate(t *testing.T) {
	if res := classify.CrossValidate(classify.ID3{}, nil, 5, 10, 1); res.Accuracy != 0 {
		t.Error("empty input")
	}
	one := toClassify([]id3.Example{{Features: map[string]bool{"x": true}, Class: "a"}})
	if res := classify.CrossValidate(classify.ID3{}, one, 5, 1, 1); res.Accuracy != 0 {
		t.Error("fewer examples than folds")
	}
}
