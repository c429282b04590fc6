package eval

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ontology"
	"repro/internal/records"
)

// The golden-metrics tests pin E1/E2/E3 to the exact values the seed
// system produces on the default deterministic corpus. Unlike the
// threshold tests in experiments_test.go, these fail on ANY drift — an
// extraction change that shifts a single record shows up here, so
// accuracy regressions cannot ride in silently under a perf PR. If a
// deliberate quality change moves the numbers, update the constants in
// the same commit and say why.

func goldenCorpus() []records.Record {
	return records.Generate(records.DefaultGenOptions())
}

func TestGoldenE1Numeric(t *testing.T) {
	res := RunE1(goldenCorpus(), core.LinkGrammar)
	if res.Overall.Correct != 381 || res.Overall.Wrong != 0 || res.Overall.Missed != 0 {
		t.Errorf("E1 overall drifted: correct=%d wrong=%d missed=%d, want 381/0/0",
			res.Overall.Correct, res.Overall.Wrong, res.Overall.Missed)
	}
	wantCorrect := map[string]int{
		records.AttrAge:           50,
		records.AttrMenarche:      50,
		records.AttrGravida:       50,
		records.AttrPara:          50,
		records.AttrFirstBirthAge: 31, // not every record mentions it
		records.AttrBloodPressure: 50,
		records.AttrPulse:         50,
		records.AttrWeight:        50,
	}
	for attr, want := range wantCorrect {
		got := res.PerAttr[attr]
		if got.Correct != want || got.Wrong != 0 || got.Missed != 0 {
			t.Errorf("E1 %q drifted: correct=%d wrong=%d missed=%d, want %d/0/0",
				attr, got.Correct, got.Wrong, got.Missed, want)
		}
	}
}

func TestGoldenE2Terms(t *testing.T) {
	ont := ontology.MustNew(ontology.Options{})
	res := RunE2(goldenCorpus(), ont, false)
	cases := []struct {
		name                 string
		got                  PR
		etrue, etotal, tinst int
	}{
		{"PreMedical", res.PreMedical, 26, 27, 28},
		{"OtherMedical", res.OtherMedical, 166, 188, 183},
		{"PreSurgical", res.PreSurgical, 6, 7, 15},
		{"OtherSurgical", res.OtherSurgical, 52, 77, 73},
	}
	for _, c := range cases {
		if c.got.ETrue != c.etrue || c.got.ETotal != c.etotal || c.got.TInst != c.tinst {
			t.Errorf("E2 %s drifted: ETrue=%d ETotal=%d TInst=%d, want %d/%d/%d",
				c.name, c.got.ETrue, c.got.ETotal, c.got.TInst, c.etrue, c.etotal, c.tinst)
		}
	}
}

func TestGoldenE3Smoking(t *testing.T) {
	res := RunE3(goldenCorpus(), 7)
	if got, want := res.Accuracy, 0.9488888888888889; math.Abs(got-want) > 1e-12 {
		t.Errorf("E3 accuracy drifted: %.16f, want %.16f", got, want)
	}
	if got, want := res.StdDev, 0.020000000000000028; math.Abs(got-want) > 1e-12 {
		t.Errorf("E3 stddev drifted: %.16f, want %.16f", got, want)
	}
	if res.MinFeatures != 3 || res.MaxFeatures != 5 {
		t.Errorf("E3 tree size drifted: features %d–%d, want 3–5",
			res.MinFeatures, res.MaxFeatures)
	}
	if res.Rounds != 10 || res.Folds != 5 {
		t.Errorf("E3 protocol changed: %d rounds × %d folds", res.Rounds, res.Folds)
	}
}

// TestGoldenE3Confusion pins E3's full confusion matrix, cell by cell.
// Any behavioral drift in the ID3 backend or the CV harness — a changed
// shuffle stream, a differently-built feature map, a fold split off by
// one — moves at least one cell here.
func TestGoldenE3Confusion(t *testing.T) {
	res := RunE3(goldenCorpus(), 7)
	want := map[string]map[string]int{
		"current": {"current": 107, "former": 3, "never": 10},
		"former":  {"current": 10, "former": 40},
		"never":   {"never": 280},
	}
	for actual, row := range want {
		for pred, n := range row {
			if got := res.Confusion[actual][pred]; got != n {
				t.Errorf("E3 confusion[%s][%s] = %d, want %d", actual, pred, got, n)
			}
		}
	}
	total, wantTotal := 0, 0
	for _, row := range res.Confusion {
		for _, n := range row {
			total += n
		}
	}
	for _, row := range want {
		for _, n := range row {
			wantTotal += n
		}
	}
	if total != wantTotal {
		t.Errorf("E3 confusion total = %d, want %d (a new cell appeared)", total, wantTotal)
	}
	if res.Backend != "id3" {
		t.Errorf("E3 ran backend %q, want id3", res.Backend)
	}
}

// TestGoldenA6Gini pins the Gini backend's cross-validation on the
// golden corpus: accuracy, stddev, tree size and the full confusion
// matrix. On this corpus the Gini trees score exactly what the ID3
// trees do.
func TestGoldenA6Gini(t *testing.T) {
	res := RunA6(goldenCorpus(), 7).Gini
	if res.Backend != "gini" {
		t.Fatalf("A6 Gini ran backend %q", res.Backend)
	}
	if got, want := res.Accuracy, 0.9488888888888889; math.Abs(got-want) > 1e-12 {
		t.Errorf("A6 Gini accuracy drifted: %.16f, want %.16f", got, want)
	}
	if got, want := res.StdDev, 0.020000000000000028; math.Abs(got-want) > 1e-12 {
		t.Errorf("A6 Gini stddev drifted: %.16f, want %.16f", got, want)
	}
	if res.MinFeatures != 3 || res.MaxFeatures != 5 {
		t.Errorf("A6 Gini tree size drifted: features %d–%d, want 3–5",
			res.MinFeatures, res.MaxFeatures)
	}
	if res.Rounds != 10 || res.Folds != 5 {
		t.Errorf("A6 Gini protocol changed: %d rounds × %d folds", res.Rounds, res.Folds)
	}
	want := map[string]map[string]int{
		"current": {"current": 107, "former": 3, "never": 10},
		"former":  {"current": 10, "former": 40},
		"never":   {"never": 280},
	}
	if !reflect.DeepEqual(res.Confusion, want) {
		t.Errorf("A6 Gini confusion drifted:\n%v\nwant\n%v", res.Confusion, want)
	}
}
