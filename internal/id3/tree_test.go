package id3

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func ex(class string, feats ...string) Example {
	m := map[string]bool{}
	for _, f := range feats {
		m[f] = true
	}
	return Example{Features: m, Class: class}
}

func smokingExamples() []Example {
	// Miniature version of the smoking task: never / former / current.
	// Class markers repeat across examples, as they do in real dictation
	// from a single clinician.
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

func TestTrainPureLeaf(t *testing.T) {
	tr := Train([]Example{ex("a", "x"), ex("a", "y")})
	if !tr.leaf || tr.class != "a" {
		t.Fatalf("pure set should give leaf 'a', got %v", tr)
	}
	if tr.FeatureCount() != 0 || tr.Depth() != 0 {
		t.Error("leaf metrics")
	}
}

func TestTrainAndClassify(t *testing.T) {
	tr := Train(smokingExamples())
	for _, e := range smokingExamples() {
		if got := tr.Classify(e.Features); got != e.Class {
			t.Errorf("training example %v classified %q, want %q", e.Features, got, e.Class)
		}
	}
	// Unseen combinations.
	if got := tr.Classify(map[string]bool{"quit": true, "smoke": true, "ago": true}); got != "former" {
		t.Errorf("quit-smoking case = %q, want former", got)
	}
	if got := tr.Classify(map[string]bool{"never": true, "smoke": true}); got != "never" {
		t.Errorf("never case = %q, want never", got)
	}
}

func TestFeatureCountSmall(t *testing.T) {
	// ID3 with information gain should need few features, as the paper
	// observes (4–7 on the real task).
	tr := Train(smokingExamples())
	if fc := tr.FeatureCount(); fc == 0 || fc > 8 {
		t.Errorf("FeatureCount = %d, want small positive", fc)
	}
	if len(tr.Features()) != tr.FeatureCount() {
		t.Error("Features()/FeatureCount() disagree")
	}
}

func TestClassifyEmptyTree(t *testing.T) {
	tr := Train(nil)
	if got := tr.Classify(map[string]bool{"x": true}); got != "" {
		t.Errorf("empty tree classified %q", got)
	}
}

func TestMajorityTieBreak(t *testing.T) {
	// Equal counts: deterministic alphabetical tie-break.
	m, pure := majority([]Example{ex("b"), ex("a")})
	if m != "a" || pure {
		t.Errorf("majority = %q pure=%v", m, pure)
	}
}

func TestGainPerfectSplit(t *testing.T) {
	exs := []Example{ex("y", "f"), ex("y", "f"), ex("n"), ex("n")}
	if g := gain(exs, "f"); g < 0.99 {
		t.Errorf("perfect split gain = %v, want 1.0", g)
	}
	if g := gain(exs, "absent"); g != 0 {
		t.Errorf("useless feature gain = %v, want 0", g)
	}
}

func TestTreeString(t *testing.T) {
	tr := Train(smokingExamples())
	s := tr.String()
	if !strings.Contains(s, "has(") || !strings.Contains(s, "→") {
		t.Errorf("String() = %q", s)
	}
}

// Property: the tree always reproduces its own training labels when every
// example has a distinct feature signature.
func TestTrainConsistencyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var exs []Example
		seen := map[string]bool{}
		classes := []string{"a", "b", "c"}
		for i := 0; i < 20; i++ {
			feats := map[string]bool{}
			sig := ""
			for j := 0; j < 6; j++ {
				if rng.Intn(2) == 1 {
					feats[string(rune('p'+j))] = true
					sig += "1"
				} else {
					sig += "0"
				}
			}
			if seen[sig] {
				continue
			}
			seen[sig] = true
			exs = append(exs, Example{Features: feats, Class: classes[rng.Intn(3)]})
		}
		tr := Train(exs)
		for _, e := range exs {
			if tr.Classify(e.Features) != e.Class {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
