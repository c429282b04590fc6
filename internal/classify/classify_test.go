package classify

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestNamesResolve(t *testing.T) {
	for _, name := range Names() {
		b, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if b.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, b.Name())
		}
		if b.Params() == "" {
			t.Errorf("New(%q).Params() is empty", name)
		}
	}
	if _, err := New("nearest-neighbor"); err == nil {
		t.Error("New with an unknown name succeeded, want error")
	}
	if Default().Name() != "id3" {
		t.Errorf("Default().Name() = %q, want id3 (the paper's backend)", Default().Name())
	}
}

func TestInstanceMemoizesViews(t *testing.T) {
	featCalls, tokCalls := 0, 0
	in := NewInstance(
		func() map[string]bool { featCalls++; return map[string]bool{"smoker": true} },
		func() []string { tokCalls++; return []string{"smoker"} },
	)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in.Features()
			in.Tokens()
		}()
	}
	wg.Wait()
	if featCalls != 1 || tokCalls != 1 {
		t.Errorf("view constructors ran %d/%d times, want 1/1 (memoized)", featCalls, tokCalls)
	}
	if !in.Features()["smoker"] || in.Tokens()[0] != "smoker" {
		t.Error("memoized views lost their values")
	}
}

func TestInstanceZeroValueAndNilViews(t *testing.T) {
	var zero Instance
	if zero.Features() != nil || zero.Tokens() != nil {
		t.Error("zero Instance should yield nil views")
	}
	onlyFeats := NewInstance(func() map[string]bool { return map[string]bool{"x": true} }, nil)
	if onlyFeats.Tokens() != nil {
		t.Error("nil token constructor should yield nil tokens")
	}
	onlyToks := NewInstance(nil, func() []string { return []string{"x"} })
	if onlyToks.Features() != nil {
		t.Error("nil feature constructor should yield nil features")
	}
}

func TestEagerWrappers(t *testing.T) {
	f := FeatureInstance(map[string]bool{"quit": true})
	if !f.Features()["quit"] || f.Tokens() != nil {
		t.Error("FeatureInstance views wrong")
	}
	tok := TokenInstance([]string{"quit"})
	if tok.Tokens()[0] != "quit" || tok.Features() != nil {
		t.Error("TokenInstance views wrong")
	}
}

// treeExamples is a tiny linearly separable feature dataset.
func treeExamples() []Example {
	return []Example{
		{Instance: FeatureInstance(map[string]bool{"smokes": true, "denies": false}), Class: "current"},
		{Instance: FeatureInstance(map[string]bool{"smokes": true, "pack": true}), Class: "current"},
		{Instance: FeatureInstance(map[string]bool{"denies": true}), Class: "never"},
		{Instance: FeatureInstance(map[string]bool{"denies": true, "tobacco": true}), Class: "never"},
	}
}

func TestTreeBackends(t *testing.T) {
	for _, b := range []Backend{ID3{}, Gini{}} {
		m := b.Train(treeExamples())
		if m.Backend() != b.Name() {
			t.Errorf("%s model reports backend %q", b.Name(), m.Backend())
		}
		if m.Size() < 1 {
			t.Errorf("%s model size = %d, want >= 1", b.Name(), m.Size())
		}
		for _, e := range treeExamples() {
			if got := m.Predict(e.Instance); got != e.Class {
				t.Errorf("%s predicted %q for a training example of class %q", b.Name(), got, e.Class)
			}
		}
	}
}

func tokenExamples() []Example {
	return []Example{
		{Instance: TokenInstance([]string{"she", "smokes", "one", "pack", "per", "day"}), Class: "current"},
		{Instance: TokenInstance([]string{"current", "smoker", "for", "20", "years"}), Class: "current"},
		{Instance: TokenInstance([]string{"she", "denies", "tobacco", "use"}), Class: "never"},
		{Instance: TokenInstance([]string{"never", "a", "smoker"}), Class: "never"},
		{Instance: TokenInstance([]string{"former", "smoker", "quit", "ten", "years", "ago"}), Class: "former"},
		{Instance: TokenInstance([]string{"she", "quit", "smoking", "five", "years", "ago"}), Class: "former"},
	}
}

func TestVectorTrainPredict(t *testing.T) {
	m := NewVector().Train(tokenExamples())
	if m.Backend() != "vector" {
		t.Errorf("model backend = %q", m.Backend())
	}
	if m.Size() < 1 {
		t.Errorf("model size = %d, want >= 1", m.Size())
	}
	for _, e := range tokenExamples() {
		if got := m.Predict(e.Instance); got != e.Class {
			t.Errorf("predicted %q for a training example of class %q", got, e.Class)
		}
	}
	// Held-out paraphrases near each centroid.
	cases := []struct {
		tokens []string
		want   string
	}{
		{[]string{"smokes", "half", "a", "pack", "per", "day"}, "current"},
		{[]string{"denies", "smoking"}, "never"},
		{[]string{"quit", "smoking", "in", "1995"}, "former"},
	}
	for _, c := range cases {
		if got := m.Predict(TokenInstance(c.tokens)); got != c.want {
			t.Errorf("Predict(%v) = %q, want %q", c.tokens, got, c.want)
		}
	}
}

func TestVectorDeterministic(t *testing.T) {
	a := NewVector().Train(tokenExamples())
	b := NewVector().Train(tokenExamples())
	probes := [][]string{
		{"smoker"}, {"tobacco"}, {"quit"}, {"she", "smokes"}, {"denies", "use"},
	}
	for _, p := range probes {
		if ga, gb := a.Predict(TokenInstance(p)), b.Predict(TokenInstance(p)); ga != gb {
			t.Errorf("two identical trainings disagree on %v: %q vs %q", p, ga, gb)
		}
	}
}

func TestVectorDegenerate(t *testing.T) {
	empty := NewVector().Train(nil)
	if got := empty.Predict(TokenInstance([]string{"smoker"})); got != "" {
		t.Errorf("untrained model predicted %q, want \"\"", got)
	}
	if empty.Size() != 0 {
		t.Errorf("untrained model size = %d, want 0", empty.Size())
	}
	m := NewVector().Train(tokenExamples())
	if got := m.Predict(Instance{}); got != "" {
		t.Errorf("predicting an instance with no tokens yielded %q, want \"\"", got)
	}
}

func TestVectorTieBreaksOnFirstSortedLabel(t *testing.T) {
	// Two labels with identical training text: every probe ties, and the
	// sorted-label order must decide deterministically.
	exs := []Example{
		{Instance: TokenInstance([]string{"same", "words"}), Class: "zebra"},
		{Instance: TokenInstance([]string{"same", "words"}), Class: "aardvark"},
	}
	m := NewVector().Train(exs)
	if got := m.Predict(TokenInstance([]string{"same", "words"})); got != "aardvark" {
		t.Errorf("tie broke to %q, want first sorted label \"aardvark\"", got)
	}
}

func TestCrossValidateDegenerate(t *testing.T) {
	if res := CrossValidate(ID3{}, nil, 5, 10, 7); res.Accuracy != 0 || res.Confusion != nil {
		t.Errorf("empty input should yield a zero result, got %+v", res)
	}
	if res := CrossValidate(ID3{}, treeExamples(), 1, 10, 7); res.Accuracy != 0 || res.Backend != "id3" {
		t.Errorf("k=1 should yield a zero result tagged with the backend, got %+v", res)
	}
	if res := CrossValidate(NewVector(), tokenExamples()[:2], 5, 10, 7); res.Accuracy != 0 || res.Backend != "vector" {
		t.Errorf("too few examples should yield a zero result, got %+v", res)
	}
}

func TestCrossValidateCountsAndDeterminism(t *testing.T) {
	exs := append(treeExamples(), treeExamples()...) // 8 examples, 2 classes
	a := CrossValidate(ID3{}, exs, 4, 3, 2005)
	b := CrossValidate(ID3{}, exs, 4, 3, 2005)
	if !reflect.DeepEqual(a, b) {
		t.Error("same backend/seed produced different CV results")
	}
	total := 0
	for _, row := range a.Confusion {
		for _, n := range row {
			total += n
		}
	}
	if want := len(exs) * a.Rounds; total != want {
		t.Errorf("confusion total = %d, want examples×rounds = %d", total, want)
	}
	if a.Backend != "id3" || a.Folds != 4 || a.Rounds != 3 {
		t.Errorf("protocol fields drifted: %+v", a)
	}
}

// smokingExamples is a miniature smoking task (never / former /
// current) over Boolean word features. Class markers repeat across
// examples, as they do in real dictation from a single clinician.
func smokingExamples() []Example {
	ex := func(class string, words ...string) Example {
		feats := make(map[string]bool, len(words))
		for _, w := range words {
			feats[w] = true
		}
		return Example{Instance: FeatureInstance(feats), Class: class}
	}
	return []Example{
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

func TestCrossValidate(t *testing.T) {
	res := CrossValidate(ID3{}, smokingExamples(), 5, 10, 1)
	if res.Accuracy < 0.5 {
		t.Errorf("CV accuracy = %.2f, suspiciously low", res.Accuracy)
	}
	if res.MinFeatures <= 0 || res.MaxFeatures < res.MinFeatures {
		t.Errorf("feature range %d–%d", res.MinFeatures, res.MaxFeatures)
	}
	if res.Rounds != 10 || res.Folds != 5 {
		t.Error("round/fold bookkeeping")
	}
	// One PerClass entry per class, each with its per-round support.
	support := map[string]int{"never": 8, "former": 7, "current": 6}
	if len(res.PerClass) != len(support) {
		t.Errorf("PerClass = %v, want one entry per class", res.PerClass)
	}
	for class, n := range support {
		if got := res.PerClass[class].Support; got != n {
			t.Errorf("PerClass[%s].Support = %d, want %d", class, got, n)
		}
	}
	s := res.String()
	for _, want := range []string{"5-fold CV × 10 rounds (id3)", "accuracy", "never", "former", "current"} {
		if !strings.Contains(s, want) {
			t.Errorf("CVResult.String() lacks %q:\n%s", want, s)
		}
	}
}

func TestCrossValidateConfusionMatrix(t *testing.T) {
	exs := smokingExamples()
	res := CrossValidate(ID3{}, exs, 5, 4, 1)
	// Row sums equal actual counts × rounds.
	counts := map[string]int{}
	for _, e := range exs {
		counts[e.Class]++
	}
	if len(res.Confusion) != len(counts) {
		t.Errorf("confusion has %d rows, want %d", len(res.Confusion), len(counts))
	}
	for class, row := range res.Confusion {
		sum := 0
		for _, n := range row {
			sum += n
		}
		if sum != counts[class]*res.Rounds {
			t.Errorf("confusion row %q sums to %d, want %d", class, sum, counts[class]*res.Rounds)
		}
	}
	s := res.ConfusionString()
	for class := range counts {
		if !strings.Contains(s, class) {
			t.Errorf("ConfusionString missing %q:\n%s", class, s)
		}
	}
	if !strings.HasPrefix(s, "actual\\pred") {
		t.Errorf("ConfusionString lacks its header:\n%s", s)
	}
	if res.StdDev < 0 || res.StdDev > 0.5 {
		t.Errorf("implausible round stddev %v", res.StdDev)
	}
}

func TestStddev(t *testing.T) {
	if got := stddev(nil); got != 0 {
		t.Errorf("stddev(nil) = %v", got)
	}
	if got := stddev([]float64{5, 5, 5}); got != 0 {
		t.Errorf("stddev(constant) = %v", got)
	}
	if got := stddev([]float64{0, 1}); got != 0.5 {
		t.Errorf("stddev(0,1) = %v, want 0.5", got)
	}
}

// TestCrossValidateWithCriteria runs both tree criteria under the one
// protocol: same folds and rounds, each with a usable accuracy.
func TestCrossValidateWithCriteria(t *testing.T) {
	exs := smokingExamples()
	id3Res := CrossValidate(ID3{}, exs, 5, 5, 42)
	giniRes := CrossValidate(Gini{}, exs, 5, 5, 42)
	if id3Res.Accuracy <= 0 || giniRes.Accuracy <= 0 {
		t.Fatalf("accuracies: id3=%v gini=%v", id3Res.Accuracy, giniRes.Accuracy)
	}
	if id3Res.Folds != giniRes.Folds || id3Res.Rounds != giniRes.Rounds {
		t.Error("protocol mismatch")
	}
	if id3Res.Backend != "id3" || giniRes.Backend != "gini" {
		t.Errorf("results tagged %q and %q", id3Res.Backend, giniRes.Backend)
	}
}
