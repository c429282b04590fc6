package core

import (
	"sync"
	"testing"

	"repro/internal/classify"
	"repro/internal/linkgram"
	"repro/internal/pos"
	"repro/internal/records"
	"repro/internal/textproc"
)

// TestConcurrentBackendsShareOneDocument exercises the concurrency
// contract of the lazy Instance views under the race detector: two
// differently-backed models classifying the same shared instance from
// many goroutines must (a) race-free agree with their own sequential
// prediction and (b) between them POS-tag and parse the section's
// sentences at most once — the vector model's token view must not pull
// the tagging/parsing the tree model needs, and the tree model's
// feature view must be computed exactly once however many goroutines
// ask for it.
func TestConcurrentBackendsShareOneDocument(t *testing.T) {
	recs := records.Generate(records.DefaultGenOptions())
	field := SmokingField()
	treeC := TrainCategorical(field, recs)
	vecC := TrainCategorical(field.WithBackend(classify.NewVector()), recs)

	var rec records.Record
	for _, r := range recs {
		if r.Gold.Smoking != "" {
			rec = r
			break
		}
	}

	// Sequential baseline on its own document: the expected predictions
	// and the tag/parse cost of one feature extraction.
	base := textproc.Analyze(rec.Text)
	baseInst := field.Instance(base)
	tag0, parse0 := pos.TagPasses(), linkgram.ParsePasses()
	wantTree := treeC.Model.Predict(baseInst)
	wantVec := vecC.Model.Predict(baseInst)
	wantTags := pos.TagPasses() - tag0
	wantParses := linkgram.ParsePasses() - parse0
	if wantTags == 0 {
		t.Fatalf("baseline feature extraction tagged %d sentences, want > 0", wantTags)
	}

	// Concurrent run: one fresh document, one shared instance, both
	// models, many goroutines.
	doc := textproc.Analyze(rec.Text)
	inst := field.Instance(doc)
	tag0, parse0 = pos.TagPasses(), linkgram.ParsePasses()
	const goroutines = 8
	treeGot := make([]string, goroutines)
	vecGot := make([]string, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(2)
		go func(i int) { defer wg.Done(); treeGot[i] = treeC.Model.Predict(inst) }(i)
		go func(i int) { defer wg.Done(); vecGot[i] = vecC.Model.Predict(inst) }(i)
	}
	wg.Wait()

	for i := 0; i < goroutines; i++ {
		if treeGot[i] != wantTree {
			t.Errorf("goroutine %d: tree predicted %q, sequential baseline %q", i, treeGot[i], wantTree)
		}
		if vecGot[i] != wantVec {
			t.Errorf("goroutine %d: vector predicted %q, sequential baseline %q", i, vecGot[i], wantVec)
		}
	}
	if gotTags := pos.TagPasses() - tag0; gotTags != wantTags {
		t.Errorf("%d goroutines tagged %d sentence(s), want the one-pass cost %d", 2*goroutines, gotTags, wantTags)
	}
	if gotParses := linkgram.ParsePasses() - parse0; gotParses != wantParses {
		t.Errorf("%d goroutines parsed %d sentence(s), want the one-pass cost %d", 2*goroutines, gotParses, wantParses)
	}
}

// TestVectorPredictionNeedsNoParsing pins the vector backend's
// throughput story: classifying through the token view alone must not
// POS-tag or link-parse anything.
func TestVectorPredictionNeedsNoParsing(t *testing.T) {
	recs := records.Generate(records.DefaultGenOptions())
	field := SmokingField()
	vecC := TrainCategorical(field.WithBackend(classify.NewVector()), recs)

	tag0, parse0 := pos.TagPasses(), linkgram.ParsePasses()
	for _, r := range recs[:10] {
		vecC.ClassifyDoc(textproc.Analyze(r.Text))
	}
	if d := pos.TagPasses() - tag0; d != 0 {
		t.Errorf("vector classification tagged %d sentences, want 0", d)
	}
	if d := linkgram.ParsePasses() - parse0; d != 0 {
		t.Errorf("vector classification parsed %d sentences, want 0", d)
	}
}
