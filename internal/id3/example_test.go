package id3_test

import (
	"fmt"

	"repro/internal/id3"
	"repro/internal/textproc"
)

// features extracts the paper's default feature set from a header-less
// note, which Analyze turns into one section.
func features(text string) map[string]bool {
	return id3.FeaturesFromSection(textproc.Analyze(text).Sections[0], id3.DefaultOptions())
}

// Train on the paper's smoking examples and classify a held-out phrasing.
func ExampleTrain() {
	examples := []id3.Example{
		{Features: features("She quit smoking five years ago"), Class: "former"},
		{Features: features("She stopped smoking last year"), Class: "former"},
		{Features: features("She is currently a smoker"), Class: "current"},
		{Features: features("Current smoker, one pack per day"), Class: "current"},
		{Features: features("She has never smoked"), Class: "never"},
		{Features: features("Denies tobacco use"), Class: "never"},
	}
	tree := id3.Train(examples)
	fmt.Println(tree.Classify(features("Patient quit smoking in 1995")))
	// Output: former
}

// The §3.3 lemma option folds inflections into one Boolean feature.
func ExampleFeaturesFromSection() {
	feats := features("She denies smoking.")
	fmt.Println(feats["deny"])
	// Output: true
}
