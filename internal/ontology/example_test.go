package ontology_test

import (
	"fmt"

	"repro/internal/ontology"
)

// Surface variants and synonyms resolve to one concept after
// normalization.
func ExampleOntology_Lookup() {
	ont := ontology.MustNew(ontology.Options{})
	for _, surface := range []string{"high blood pressures", "htn", "hypertension"} {
		c := ont.Lookup(surface)
		fmt.Printf("%s → %s (%s)\n", surface, c.Preferred, c.CUI)
	}
	// Output:
	// high blood pressures → hypertension (C0003)
	// htn → hypertension (C0003)
	// hypertension → hypertension (C0003)
}
