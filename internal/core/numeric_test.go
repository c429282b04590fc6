package core

import (
	"testing"

	"repro/internal/records"
	"repro/internal/textproc"
)

const vitalsRecord = `Patient:  1
History of Present Illness:  Ms. 1 is a 50-year-old woman who underwent a screening mammogram.
GYN History:  Menarche at age 10, gravida 4, para 3, last menstrual period about a year ago.  First live birth at age 18.
Vitals:  Blood pressure is 144/90, pulse of 84, and weight of 154.
`

func TestParseStrategy(t *testing.T) {
	for _, want := range []Strategy{LinkGrammar, PatternOnly, ProximityOnly} {
		got, err := ParseStrategy(want.String())
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v", want.String(), got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("bogus strategy accepted")
	}
}

func TestNumericExtractionFullRecord(t *testing.T) {
	x := NewNumericExtractor(LinkGrammar)
	got := x.ExtractDoc(textproc.Analyze(vitalsRecord))
	want := map[string]float64{
		records.AttrAge:           50,
		records.AttrMenarche:      10,
		records.AttrGravida:       4,
		records.AttrPara:          3,
		records.AttrFirstBirthAge: 18,
		records.AttrBloodPressure: 144,
		records.AttrPulse:         84,
		records.AttrWeight:        154,
	}
	for attr, val := range want {
		v, ok := got[attr]
		if !ok {
			t.Errorf("attribute %q not extracted; got %v", attr, got)
			continue
		}
		if v.Value != val {
			t.Errorf("%q = %v, want %v", attr, v.Value, val)
		}
	}
	if bp := got[records.AttrBloodPressure]; !bp.Ratio || bp.Value2 != 90 {
		t.Errorf("blood pressure = %+v, want ratio 144/90", got[records.AttrBloodPressure])
	}
}

func TestNumericExtractionStrategiesOnVitals(t *testing.T) {
	for _, strat := range []Strategy{LinkGrammar, PatternOnly, ProximityOnly} {
		x := NewNumericExtractor(strat)
		got := x.ExtractDoc(textproc.Analyze(vitalsRecord))
		if got[records.AttrPulse].Value != 84 {
			t.Errorf("%v: pulse = %v", strat, got[records.AttrPulse])
		}
	}
}

func TestNumericLinkGrammarBeatsPatternOnHardSentence(t *testing.T) {
	// A phrasing outside the four patterns: the keyword and its number
	// are separated by words that defeat shallow patterns but not graph
	// distance ("Weight is 211 pounds with a pulse of 96 ...").
	rec := "Vitals:  Weight is 211 pounds with a pulse of 96 and blood pressure of 144/90.\n"
	lg := NewNumericExtractor(LinkGrammar).ExtractDoc(textproc.Analyze(rec))
	if lg[records.AttrWeight].Value != 211 {
		t.Errorf("link-grammar weight = %v, want 211", lg[records.AttrWeight])
	}
	if lg[records.AttrPulse].Value != 96 {
		t.Errorf("link-grammar pulse = %v, want 96", lg[records.AttrPulse])
	}
	if lg[records.AttrBloodPressure].Value != 144 {
		t.Errorf("link-grammar bp = %v, want 144", lg[records.AttrBloodPressure])
	}
}

func TestNumericYearFiltered(t *testing.T) {
	rec := "Social History:  She quit smoking in 1995.\nVitals:  Pulse of 96.\n"
	got := NewNumericExtractor(LinkGrammar).ExtractDoc(textproc.Analyze(rec))
	if got[records.AttrPulse].Value != 96 {
		t.Errorf("pulse = %v", got[records.AttrPulse])
	}
}

func TestNumericMissingSection(t *testing.T) {
	got := NewNumericExtractor(LinkGrammar).ExtractDoc(textproc.Analyze("Chief Complaint:  Breast pain.\n"))
	if len(got) != 0 {
		t.Errorf("extracted from empty record: %v", got)
	}
}

func TestNumericE1Shape(t *testing.T) {
	// E1: on the default 50-record corpus (single dictation style) every
	// numeric attribute present in gold must be extracted exactly —
	// the paper reports 100% precision and recall.
	recs := records.Generate(records.DefaultGenOptions())
	x := NewNumericExtractor(LinkGrammar)
	correct, wrong, missed := 0, 0, 0
	for _, r := range recs {
		got := x.ExtractDoc(textproc.Analyze(r.Text))
		for attr, gold := range r.Gold.Numeric {
			v, ok := got[attr]
			switch {
			case !ok:
				missed++
				t.Logf("record %d: %q missed", r.ID, attr)
			case v.Value == gold.Value && (!v.Ratio || v.Value2 == gold.Value2):
				correct++
			default:
				wrong++
				t.Logf("record %d: %q = %v/%v, want %v/%v", r.ID, attr, v.Value, v.Value2, gold.Value, gold.Value2)
			}
		}
	}
	if wrong != 0 || missed != 0 {
		t.Errorf("E1 shape broken: correct=%d wrong=%d missed=%d (want 100%%)", correct, wrong, missed)
	}
}

func TestStrategyString(t *testing.T) {
	if LinkGrammar.String() != "link-grammar" || PatternOnly.String() != "pattern-only" ||
		ProximityOnly.String() != "proximity-only" || Strategy(9).String() != "unknown" {
		t.Error("Strategy.String")
	}
}
