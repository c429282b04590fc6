package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/records"
	"repro/internal/textproc"
)

// Extract the numeric fields of a vitals section with the paper's
// link-grammar association.
func ExampleNumericExtractor_ExtractDoc() {
	x := core.NewNumericExtractor(core.LinkGrammar)
	got := x.ExtractDoc(textproc.Analyze("Vitals:  Blood pressure is 144/90, pulse of 84, and weight of 154.\n"))
	for _, attr := range []string{records.AttrBloodPressure, records.AttrPulse, records.AttrWeight} {
		v := got[attr]
		if v.Ratio {
			fmt.Printf("%s = %g/%g\n", attr, v.Value, v.Value2)
		} else {
			fmt.Printf("%s = %g\n", attr, v.Value)
		}
	}
	// Output:
	// blood pressure = 144/90
	// pulse = 84
	// weight = 154
}
