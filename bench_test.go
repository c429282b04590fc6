// Package repro's benchmark harness: one benchmark per paper artifact
// (E1, E2, E3, F1) and per ablation (A1–A7), plus substrate microbenches
// (link grammar parsing, POS tagging, ontology lookup, store inserts)
// and the before/after corpus pipeline pair. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the relevant quality metric through b.ReportMetric
// so a single run regenerates the numbers EXPERIMENTS.md records.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/linkgram"
	"repro/internal/ontology"
	"repro/internal/pos"
	"repro/internal/records"
	"repro/internal/store"
	"repro/internal/textproc"
)

func corpus(b *testing.B, diversity float64) []records.Record {
	b.Helper()
	opts := records.DefaultGenOptions()
	opts.StyleDiversity = diversity
	return records.Generate(opts)
}

// BenchmarkE1NumericExtraction regenerates the §5 numeric result: all
// eight attributes at 100% precision/recall on the canonical corpus.
func BenchmarkE1NumericExtraction(b *testing.B) {
	recs := corpus(b, 0)
	var res eval.E1Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = eval.RunE1(recs, core.LinkGrammar)
	}
	b.ReportMetric(100*res.Overall.Precision(), "precision_%")
	b.ReportMetric(100*res.Overall.Recall(), "recall_%")
}

// BenchmarkE2TermExtraction regenerates Table 1 (paper regime: synonym
// resolution off).
func BenchmarkE2TermExtraction(b *testing.B) {
	recs := corpus(b, 0)
	ont := ontology.MustNew(ontology.Options{})
	var res eval.E2Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = eval.RunE2(recs, ont, false)
	}
	b.ReportMetric(100*res.PreMedical.Precision(), "preMed_P_%")
	b.ReportMetric(100*res.PreMedical.Recall(), "preMed_R_%")
	b.ReportMetric(100*res.PreSurgical.Recall(), "preSurg_R_%")
	b.ReportMetric(100*res.OtherSurgical.Precision(), "otherSurg_P_%")
}

// BenchmarkE3SmokingCV regenerates the smoking cross-validation (92.2%
// in the paper).
func BenchmarkE3SmokingCV(b *testing.B) {
	recs := corpus(b, 0)
	var acc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc = eval.RunE3(recs, 2005).Accuracy
	}
	b.ReportMetric(100*acc, "accuracy_%")
}

// BenchmarkF1LinkageDiagram parses and renders the Figure 1 sentence.
func BenchmarkF1LinkageDiagram(b *testing.B) {
	sent := textproc.SplitSentences("Blood pressure is 144/90, pulse of 84, temperature of 98.3, and weight of 154 pounds.")[0]
	for i := 0; i < b.N; i++ {
		lk, err := linkgram.ParseSentence(sent)
		if err != nil {
			b.Fatal(err)
		}
		if lk.Diagram() == "" {
			b.Fatal("empty diagram")
		}
	}
}

// BenchmarkA1Association compares association strategies on the diverse
// corpus; link grammar should lead on recall.
func BenchmarkA1Association(b *testing.B) {
	recs := corpus(b, 0.8)
	var res eval.A1Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = eval.RunA1(recs)
	}
	for _, row := range res.Rows {
		b.ReportMetric(100*row.Overall.Recall(), string(rune('0'+int(row.Strategy)))+"_"+row.Strategy.String()+"_R_%")
	}
}

// BenchmarkA2FeatureOptions sweeps the §3.3 ID3 options.
func BenchmarkA2FeatureOptions(b *testing.B) {
	recs := corpus(b, 0)
	var res eval.A2Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = eval.RunA2(recs, 2005)
	}
	b.ReportMetric(100*res.Rows[0].Accuracy, "paperConfig_%")
	b.ReportMetric(100*res.Rows[3].Accuracy, "verbsOnly_%")
}

// BenchmarkA3AlcoholNumeric measures the paper's proposed numeric
// Boolean features.
func BenchmarkA3AlcoholNumeric(b *testing.B) {
	recs := corpus(b, 0)
	var res eval.A3Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = eval.RunA3(recs, 2005)
	}
	b.ReportMetric(100*res.Plain, "wordsOnly_%")
	b.ReportMetric(100*res.Numeric, "withNumeric_%")
}

// BenchmarkA4OntologyCoverage sweeps ontology completeness.
func BenchmarkA4OntologyCoverage(b *testing.B) {
	recs := corpus(b, 0)
	var res eval.A4Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.RunA4(recs, []float64{0.5, 1.0})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Rows[0].Medical.Recall(), "cov50_medR_%")
	b.ReportMetric(100*res.Rows[1].Medical.Recall(), "cov100_medR_%")
}

// BenchmarkA5StyleDiversity sweeps writing-style diversity.
func BenchmarkA5StyleDiversity(b *testing.B) {
	var res eval.A5Result
	for i := 0; i < b.N; i++ {
		res = eval.RunA5([]float64{0, 0.8}, 50, 2005)
	}
	b.ReportMetric(100*res.Rows[0].NumericR, "div0_numR_%")
	b.ReportMetric(100*res.Rows[1].NumericR, "div80_numR_%")
}

// BenchmarkE4BinaryFields cross-validates the categorical fields the
// paper left unfinished.
func BenchmarkE4BinaryFields(b *testing.B) {
	recs := corpus(b, 0)
	var res eval.E4Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = eval.RunE4(recs, 2005, nil)
	}
	for _, row := range res.Rows {
		switch row.Attr {
		case "family breast cancer":
			b.ReportMetric(100*row.Accuracy, "familyBC_acc_%")
		case "drug use":
			b.ReportMetric(100*row.Accuracy, "drugUse_acc_%")
		}
	}
}

// BenchmarkA6SplitCriterion compares ID3 and Gini splits on the smoking
// task (paper claim: ID3 uses fewer features).
func BenchmarkA6SplitCriterion(b *testing.B) {
	recs := corpus(b, 0)
	var res eval.A6Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = eval.RunA6(recs, 2005)
	}
	b.ReportMetric(float64(res.ID3.MaxFeatures), "id3_maxFeat")
	b.ReportMetric(float64(res.Gini.MaxFeatures), "gini_maxFeat")
}

// BenchmarkA7NegationFilter measures the negation-filter extension.
func BenchmarkA7NegationFilter(b *testing.B) {
	recs := corpus(b, 0)
	ont := ontology.MustNew(ontology.Options{})
	var res eval.A7Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = eval.RunA7(recs, ont)
	}
	b.ReportMetric(100*res.Baseline.OtherMedical.Precision(), "baseline_P_%")
	b.ReportMetric(100*res.Filtered.OtherMedical.Precision(), "filtered_P_%")
}

// BenchmarkLinkParse measures raw (uncached) parser throughput on record
// sentences: every iteration tags and parses from scratch, exercising the
// pooled scratch and the process-wide disjunct cache.
func BenchmarkLinkParse(b *testing.B) {
	recs := corpus(b, 0)
	var sents []textproc.Sentence
	for _, r := range recs[:10] {
		secs := textproc.SplitSections(r.Text)
		if sec, ok := textproc.FindSection(secs, "Vitals"); ok {
			sents = append(sents, textproc.SplitSentences(sec.Body)...)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linkgram.ParseSentence(sents[i%len(sents)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseCached measures the Document-cached parse path the
// pipeline actually runs: after the first hit, ParseSection is a memo
// probe.
func BenchmarkParseCached(b *testing.B) {
	recs := corpus(b, 0)
	type sentRef struct {
		sec *textproc.DocSection
		i   int
	}
	var refs []sentRef
	for _, r := range recs[:10] {
		doc := textproc.Analyze(r.Text)
		if sec, ok := doc.Section("Vitals"); ok {
			for i := range sec.Sentences() {
				refs = append(refs, sentRef{sec: sec, i: i})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref := refs[i%len(refs)]
		if _, err := linkgram.ParseSection(ref.sec, ref.i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTagSentence measures one POS tagging pass over a vitals
// sentence.
func BenchmarkTagSentence(b *testing.B) {
	sent := textproc.SplitSentences("Blood pressure is 144/90, pulse of 84, temperature of 98.3, and weight of 154 pounds.")[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tagged := pos.TagSentence(sent); len(tagged) == 0 {
			b.Fatal("empty tagging")
		}
	}
}

// ontologyProbeTerms are the shared probe set for the lookup benchmarks.
var ontologyProbeTerms = []string{"diabetes", "gallbladder removal", "high blood pressure", "not a concept"}

// BenchmarkOntologyLookup probes the in-memory norm map — the extraction
// hot path.
func BenchmarkOntologyLookup(b *testing.B) {
	ont := ontology.MustNew(ontology.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ont.Lookup(ontologyProbeTerms[i%len(ontologyProbeTerms)])
	}
}

// BenchmarkStoreInsert measures WAL-backed inserts.
func BenchmarkStoreInsert(b *testing.B) {
	db := store.OpenMemory()
	tbl, err := db.CreateTable(store.Schema{
		Name: "bench",
		Columns: []store.Column{
			{Name: "id", Type: store.TInt},
			{Name: "payload", Type: store.TString},
		},
		Primary: 0,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tbl.Insert(store.Row{store.Int(int64(i)), store.Str("extracted value")}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineProcess measures end-to-end per-record latency.
func BenchmarkPipelineProcess(b *testing.B) {
	recs := corpus(b, 0)
	sys, err := core.NewSystem(core.Config{Strategy: core.LinkGrammar, ResolveSynonyms: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Process(recs[i%len(recs)].Text)
	}
}

// seedProcess replicates the seed pipeline's per-extractor analysis:
// every extractor re-splits sections and re-tokenizes its text from
// scratch (numeric over the whole record, terms per history section,
// classifier over the record again), exactly as the pre-Document code
// did: one Analyze per extractor. It is the "before" side of the
// refactor benchmark.
func seedProcess(sys *core.System, recordText string) core.Extraction {
	ex := core.Extraction{Numeric: sys.Numeric.ExtractDoc(textproc.Analyze(recordText))}
	// body analyzes one section body on its own, as the seed's
	// per-section term extraction did.
	body := func(sec textproc.Section) *textproc.DocSection { return textproc.Analyze(sec.Body).Sections[0] }
	secs := textproc.SplitSections(recordText)
	if sec, ok := textproc.FindSection(secs, "Past Medical History"); ok && sec.Body != "" {
		ex.PreMedical, ex.OtherMedical = core.SplitTerms(sys.Terms.ExtractSection(body(sec), ontology.PredefinedMedical))
	}
	if sec, ok := textproc.FindSection(secs, "Past Surgical History"); ok && sec.Body != "" {
		ex.PreSurgical, ex.OtherSurgical = core.SplitTerms(sys.Terms.ExtractSection(body(sec), ontology.PredefinedSurgical))
	}
	if sec, ok := textproc.FindSection(secs, "Medications"); ok && sec.Body != "" {
		for _, t := range sys.Terms.ExtractSection(body(sec), nil) {
			if t.Concept.Type == ontology.Medication {
				ex.Medications = append(ex.Medications, t.Concept.Preferred)
			}
		}
	}
	if sys.Smoking != nil {
		ex.Smoking = sys.Smoking.ClassifyDoc(textproc.Analyze(recordText))
	}
	return ex
}

// seedPersist replicates the seed's persistence: CreateTable on every
// call and one WAL record per attribute row.
func seedPersist(db *store.DB, ex core.Extraction) (int, error) {
	tbl, err := db.CreateTable(store.Schema{
		Name: "extracted",
		Columns: []store.Column{
			{Name: "id", Type: store.TInt},
			{Name: "patient", Type: store.TInt},
			{Name: "attribute", Type: store.TString},
			{Name: "value", Type: store.TString},
			{Name: "numeric", Type: store.TFloat},
		},
		Primary: 0,
	})
	if err != nil {
		return 0, err
	}
	next := int64(tbl.Len()) + 1
	n := 0
	put := func(attr, val string, num float64) error {
		row := store.Row{
			store.Int(next), store.Int(int64(ex.Patient)),
			store.Str(attr), store.Str(val), store.Float(num),
		}
		if err := tbl.Insert(row); err != nil {
			return err
		}
		next++
		n++
		return nil
	}
	for attr, v := range ex.Numeric {
		val := fmt.Sprintf("%g", v.Value)
		if v.Ratio {
			val = fmt.Sprintf("%g/%g", v.Value, v.Value2)
		}
		if err := put(attr, val, v.Value); err != nil {
			return n, err
		}
	}
	for _, l := range []struct {
		attr  string
		terms []string
	}{
		{"predefined past medical history", ex.PreMedical},
		{"other past medical history", ex.OtherMedical},
		{"predefined past surgical history", ex.PreSurgical},
		{"other past surgical history", ex.OtherSurgical},
		{"medications", ex.Medications},
	} {
		for _, t := range l.terms {
			if err := put(l.attr, t, 0); err != nil {
				return n, err
			}
		}
	}
	if ex.Smoking != "" {
		if err := put("smoking", ex.Smoking, 0); err != nil {
			return n, err
		}
	}
	return n, nil
}

// BenchmarkCorpusPerRecordPersist is the baseline the Document/batch
// refactor replaces: per-extractor re-analysis (seedProcess) and
// seedPersist per record, logging row-at-a-time against a WAL-backed
// store.
func BenchmarkCorpusPerRecordPersist(b *testing.B) {
	recs := corpus(b, 0)
	sys, err := core.NewSystem(core.Config{Strategy: core.LinkGrammar, ResolveSynonyms: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, err := store.Open(b.TempDir() + "/per-record.db")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, r := range recs {
			if _, err := seedPersist(db, seedProcess(sys, r.Text)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		db.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "recs/s")
}

// BenchmarkCorpusBatched is the refactored path: one-pass analyzed
// documents streamed through a worker pool, with batched persistence.
func BenchmarkCorpusBatched(b *testing.B) {
	recs := corpus(b, 0)
	sys, err := core.NewSystem(core.Config{Strategy: core.LinkGrammar, ResolveSynonyms: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, err := store.Open(b.TempDir() + "/batched.db")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := core.PersistAll(db, sys.ProcessAll(recs, 0)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		db.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "recs/s")
}
