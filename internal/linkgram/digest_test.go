package linkgram

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/pos"
	"repro/internal/records"
	"repro/internal/textproc"
)

// The linkage digest pins the parser's output over generated notes:
// for every sentence of every section at three style diversities, the
// first linkage's String() (or a no-linkage marker), plus the linkage
// count of each short sentence. Pruning and matching may only change
// how fast the parser finds a linkage, never which one; any change to
// the dictionary, the pruner or the DP's enumeration order that moves
// a single linkage changes this digest.
const (
	digestNotes     = 60 // notes per style diversity
	digestCountMax  = 16 // CountLinkages on sentences of at most this many tokens
	linkageDigest   = "37ebb1823c2e22ab71aa26b92507cf9ac6201cef706eb37aa773328a017dfb3e"
	digestSentences = 4842 // sentences hashed; guards against an empty corpus
	digestNoLinkage = 562  // of which had no linkage
)

func TestLinkageDigest(t *testing.T) {
	h := sha256.New()
	sentences, noLinkage, counted := 0, 0, 0
	for _, diversity := range []float64{0, 0.3, 1} {
		opts := records.DefaultGenOptions()
		opts.N = digestNotes
		opts.StyleDiversity = diversity
		for _, r := range records.Generate(opts) {
			for _, sec := range textproc.Analyze(r.Text).Sections {
				for _, s := range sec.Sentences() {
					tagged := pos.TagSentence(s)
					sentences++
					if lk, err := Parse(tagged); err != nil {
						noLinkage++
						fmt.Fprintf(h, "%s\n-- no linkage\n", s.Text)
					} else {
						fmt.Fprintf(h, "%s\n", lk)
					}
					if len(tagged) <= digestCountMax {
						counted++
						fmt.Fprintf(h, "count %d\n", CountLinkages(tagged))
					}
				}
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d sentences, %d without a linkage, %d counted", sentences, noLinkage, counted)
	if sentences != digestSentences || noLinkage != digestNoLinkage {
		t.Errorf("corpus drifted: %d sentences (%d without a linkage), want %d (%d)",
			sentences, noLinkage, digestSentences, digestNoLinkage)
	}
	if got != linkageDigest {
		t.Errorf("linkage digest = %s, want %s", got, linkageDigest)
	}
}
