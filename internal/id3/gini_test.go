package id3

import "testing"

func TestTrainGiniConsistent(t *testing.T) {
	exs := smokingExamples()
	tr := TrainGini(exs)
	for _, e := range exs {
		if got := tr.Classify(e.Features); got != e.Class {
			t.Errorf("Gini tree misclassifies training example %v: %q", e.Features, got)
		}
	}
}

func TestGiniImpurity(t *testing.T) {
	pure := []Example{ex("a"), ex("a")}
	if g := gini(pure); g != 0 {
		t.Errorf("gini(pure) = %v", g)
	}
	mixed := []Example{ex("a"), ex("b")}
	if g := gini(mixed); g != 0.5 {
		t.Errorf("gini(50/50) = %v, want 0.5", g)
	}
	if g := gini(nil); g != 0 {
		t.Errorf("gini(empty) = %v", g)
	}
}

func TestGiniGainPerfectSplit(t *testing.T) {
	exs := []Example{ex("y", "f"), ex("y", "f"), ex("n"), ex("n")}
	if g := giniGain(exs, "f"); g < 0.49 {
		t.Errorf("perfect split gini gain = %v, want 0.5", g)
	}
	if g := giniGain(exs, "absent"); g != 0 {
		t.Errorf("useless feature gini gain = %v", g)
	}
}

func TestGiniTreeAlsoCompact(t *testing.T) {
	// Both criteria should produce compact trees on separable data; the
	// paper's expectation is only that ID3 is no worse.
	exs := smokingExamples()
	id3FC := Train(exs).FeatureCount()
	giniFC := TrainGini(exs).FeatureCount()
	if id3FC == 0 || giniFC == 0 {
		t.Fatal("degenerate trees")
	}
	if id3FC > giniFC+3 {
		t.Errorf("ID3 features (%d) should not be much larger than Gini's (%d)", id3FC, giniFC)
	}
}
