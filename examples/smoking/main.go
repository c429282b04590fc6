// Smoking: train and cross-validate the ID3 smoking-status classifier,
// reproducing the paper's §5 protocol (5-fold CV, ten shuffled rounds),
// and inspect the learned tree.
package main

import (
	"fmt"
	"log"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/id3"
	"repro/internal/records"
	"repro/internal/textproc"
)

func main() {
	log.SetFlags(0)

	recs := records.Generate(records.DefaultGenOptions())
	field := core.SmokingField()

	// The paper's protocol.
	res := field.CrossValidate(recs, 5, 10, 2005)
	fmt.Print(res)
	fmt.Println("(paper: average precision (recall) 92.2%, 4-7 features per tree)")

	// The same protocol on the vector-similarity backend: a different
	// point on the accuracy/throughput dial (no tagging, no parsing).
	fmt.Println()
	fmt.Print(field.WithBackend(classify.NewVector()).CrossValidate(recs, 5, 10, 2005))

	// Train on everything and show the tree.
	var exs []id3.Example
	for _, e := range field.Examples(recs) {
		exs = append(exs, id3.Example{Features: e.Features(), Class: e.Class})
	}
	tree := id3.Train(exs)
	fmt.Printf("\ntree trained on all 45 labeled records (%d features, depth %d):\n\n%s\n",
		tree.FeatureCount(), tree.Depth(), tree)

	// Classify the paper's §3.3 example sentences.
	examples := []string{
		"She quit smoking five years ago",
		"She is currently a smoker",
		"She has never smoked",
	}
	clf := core.TrainCategorical(field, recs)
	for _, text := range examples {
		note := "Social History:  " + text + ".\n"
		fmt.Printf("  %-40q → %s\n", text, clf.ClassifyDoc(textproc.Analyze(note)))
	}
}
