package linkgram

import (
	"errors"
	"testing"

	"repro/internal/pos"
	"repro/internal/textproc"
)

func TestInternerSharesSuffixes(t *testing.T) {
	in := newInterner()
	a := in.fromNearFirst([]connID{cS, cW})
	b := in.fromNearFirst([]connID{cS, cW})
	if a != b {
		t.Error("identical lists not interned to the same node")
	}
	// Lists sharing a tail share nodes: far-first for [S,W] is W→S and
	// for [O,W] is W→O — shared head only when the FAR suffix matches.
	c := in.fromNearFirst([]connID{cW})
	if listID(c) == 0 {
		t.Error("single-connector list has zero id")
	}
	if a.next == nil || a.next.name != cS {
		t.Errorf("far-first ordering broken: %v", listNames(a))
	}
}

func TestDictionaryCoverageByTag(t *testing.T) {
	in := newInterner()
	b := &dictBuilder{in: in}
	cases := []struct {
		word string
		tag  pos.Tag
	}{
		{"pressure", pos.NN}, {"lesions", pos.NNS}, {"Lipitor", pos.NNP},
		{"significant", pos.JJ}, {"is", pos.VBZ}, {"quit", pos.VBD},
		{"smoked", pos.VBN}, {"undergoing", pos.VBG}, {"smoke", pos.VB},
		{"never", pos.RB}, {"of", pos.IN}, {"a", pos.DT}, {"she", pos.PRP},
		{"84", pos.CD}, {"and", pos.CC}, {"her", pos.PRS},
		{"will", pos.MD}, {"there", pos.EX},
		{"who", pos.PRP}, {"ago", pos.IN}, {"to", pos.TO},
	}
	for _, c := range cases {
		ds := b.disjunctsFor(c.word, c.tag)
		if len(ds) == 0 {
			t.Errorf("no disjuncts for %q/%s", c.word, c.tag)
		}
	}
	// Unconnectable tags yield nil.
	if ds := b.disjunctsFor("oh", pos.UH); ds != nil {
		t.Errorf("UH got disjuncts: %d", len(ds))
	}
}

func TestPruningDropsImpossibleDisjuncts(t *testing.T) {
	// "Pulse of 96." has no comma: every CO/CC-bearing disjunct must be
	// pruned before the DP runs.
	sents := textproc.SplitSentences("Pulse of 96.")
	p := newParser(pos.TagSentence(sents[0]))
	if p == nil {
		t.Fatal("parser prep failed")
	}
	for i := 1; i < len(p.words); i++ {
		for _, d := range p.cands[i] {
			for n := d.left; n != nil; n = n.next {
				if n.name == cCO || n.name == cCC {
					t.Errorf("word %q kept coordination connector after pruning", p.words[i].Text)
				}
			}
			for n := d.right; n != nil; n = n.next {
				if n.name == cCO || n.name == cCC {
					t.Errorf("word %q kept coordination connector after pruning", p.words[i].Text)
				}
			}
		}
	}
	p.release()

	// Directional: every surviving left connector is offered as a right
	// connector by a word to its left (the wall offers W), and every
	// surviving right connector as a left connector by a word to its
	// right. Non-directional pruning keeps left-A disjuncts on "Blood",
	// which nothing to its left can match.
	for _, text := range []string{
		"Blood pressure is 144/90.",
		"Blood pressure is 144/90, pulse of 84, temperature of 98.3, and weight of 154 pounds.",
		"She quit smoking five years ago.",
		"Menarche at age 10, gravida 4, para 3.",
	} {
		p := newParser(pos.TagSentence(textproc.SplitSentences(text)[0]))
		if p == nil {
			t.Fatalf("%q: parser prep failed", text)
		}
		for i := 1; i < len(p.words); i++ {
			var before, after, lefts, rights uint32 = 1 << cW, 0, 0, 0
			for j := 1; j < len(p.words); j++ {
				for _, d := range p.cands[j] {
					switch {
					case j < i:
						before |= namesOf(d.right)
					case j > i:
						after |= namesOf(d.left)
					default:
						lefts |= namesOf(d.left)
						rights |= namesOf(d.right)
					}
				}
			}
			if bad := lefts &^ before; bad != 0 {
				t.Errorf("%q: word %q kept left connectors %v that no word to its left offers", text, p.words[i].Text, maskNames(bad))
			}
			if bad := rights &^ after; bad != 0 {
				t.Errorf("%q: word %q kept right connectors %v that no word to its right offers", text, p.words[i].Text, maskNames(bad))
			}
		}
		p.release()
	}

	// Pruning alone can empty a word: "ago" needs a T link from a time
	// noun on its left, and the only one is on its right. The parse
	// then fails before the DP runs, as one parse attempt.
	tagged := pos.TagSentence(textproc.SplitSentences("Ago five years.")[0])
	if p := newParser(tagged); p != nil {
		p.release()
		t.Error(`"Ago five years.": pruning left every word a disjunct`)
	}
	p0 := ParsePasses()
	if _, err := Parse(tagged); !errors.Is(err, ErrNoLinkage) {
		t.Errorf(`Parse("Ago five years.") error = %v, want ErrNoLinkage`, err)
	}
	if got := ParsePasses() - p0; got != 1 {
		t.Errorf("ParsePasses rose by %d, want 1", got)
	}
}

// namesOf walks a connector list and returns its names as a bit set.
func namesOf(n *node) uint32 {
	var m uint32
	for ; n != nil; n = n.next {
		m |= 1 << n.name
	}
	return m
}

// maskNames lists the names in a bit set, for messages.
func maskNames(m uint32) []string {
	var out []string
	for c := connID(0); c < nConn; c++ {
		if m&(1<<c) != 0 {
			out = append(out, c.String())
		}
	}
	return out
}

func TestIdiomTableConsistent(t *testing.T) {
	in := newInterner()
	b := &dictBuilder{in: in}
	for idiom, family := range idioms {
		if ds := b.idiomDisjuncts(family); len(ds) == 0 {
			t.Errorf("idiom %q family %q has no disjuncts", idiom, family)
		}
	}
	if ds := b.idiomDisjuncts("nonexistent"); ds != nil {
		t.Error("unknown family returned disjuncts")
	}
}
