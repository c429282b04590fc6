// Command evaltab regenerates every table and figure of the paper's
// evaluation plus the ablations in DESIGN.md.
//
// Usage:
//
//	evaltab [-exp all|E1|E2|E3|E4|E5|F1|A1–A8] [-n 50] [-seed 2005]
//	        [-backend id3|gini|vector]
//
// -backend selects the classification backend for the categorical
// experiments (E3, E4); A8 always compares every backend side by side.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/classify"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/linkgram"
	"repro/internal/ontology"
	"repro/internal/records"
	"repro/internal/textproc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("evaltab: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses flags and writes the requested experiment tables to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("evaltab", flag.ExitOnError)
	exp := fs.String("exp", "all", "experiment id: all, E1–E5, F1, A1–A8")
	n := fs.Int("n", 50, "corpus size")
	seed := fs.Int64("seed", 2005, "corpus seed")
	backendName := fs.String("backend", "id3", "classification backend for E3/E4: id3 | gini | vector")
	fs.Parse(args)
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if err := cliutil.OneOf("-backend", *backendName, classify.Names()...); err != nil {
		return err
	}
	backend, err := classify.New(*backendName)
	if err != nil {
		return err
	}

	opts := records.DefaultGenOptions()
	opts.N = *n
	opts.Seed = *seed
	recs := records.Generate(opts)

	runOne := func(id string) error {
		switch id {
		case "E1":
			fmt.Fprintln(out, eval.RunE1(recs, core.LinkGrammar))
			fmt.Fprintln(out, "paper: precision (recall) for all eight numeric attributes is 100%")
		case "E2":
			ont := ontology.MustNew(ontology.Options{})
			fmt.Fprintln(out, eval.RunE2(recs, ont, false))
			fmt.Fprintln(out, "paper Table 1: 96.7/96.7, 76.1/86.4, 77.8/35, 62.0/75")
			fmt.Fprintln(out)
			fmt.Fprintln(out, eval.RunE2(recs, ont, true))
			fmt.Fprintln(out, "(the paper's proposed improvement: \"introducing synonyms\")")
		case "E3":
			res := eval.RunE3With(recs, *seed, backend)
			fmt.Fprint(out, res)
			fmt.Fprintln(out, "paper: average precision (recall) 92.2%, features per tree 4-7")
		case "E4":
			fmt.Fprintln(out, eval.RunE4(recs, *seed, backend))
			fmt.Fprintln(out, "(the paper completed only smoking among the twelve categorical attributes)")
		case "E5":
			ont := ontology.MustNew(ontology.Options{})
			fmt.Fprintf(out, "E5 medication extraction: %v\n", eval.RunE5(recs, ont))
		case "F1":
			sent := textproc.SplitSentences("Blood pressure is 144/90, pulse of 84, temperature of 98.3, and weight of 154 pounds.")[0]
			lk, err := linkgram.ParseSentence(sent)
			if err != nil {
				return fmt.Errorf("figure 1 sentence failed to parse: %v", err)
			}
			fmt.Fprintln(out, "F1 / Figure 1: linkage diagram")
			fmt.Fprintln(out, lk.Diagram())
		case "A1":
			diverse := records.DefaultGenOptions()
			diverse.N = *n
			diverse.Seed = *seed
			diverse.StyleDiversity = 0.8
			fmt.Fprintln(out, "A1 on canonical corpus (diversity 0):")
			fmt.Fprintln(out, eval.RunA1(recs))
			fmt.Fprintln(out, "A1 on diverse corpus (diversity 0.8):")
			fmt.Fprintln(out, eval.RunA1(records.Generate(diverse)))
		case "A2":
			fmt.Fprintln(out, eval.RunA2(recs, *seed))
		case "A3":
			fmt.Fprintln(out, eval.RunA3(recs, *seed))
		case "A4":
			res, err := eval.RunA4(recs, []float64{0.5, 0.7, 0.9, 1.0})
			if err != nil {
				return err
			}
			fmt.Fprintln(out, res)
		case "A5":
			fmt.Fprintln(out, eval.RunA5([]float64{0, 0.25, 0.5, 0.75, 1.0}, *n, *seed))
		case "A6":
			fmt.Fprintln(out, eval.RunA6(recs, *seed))
		case "A7":
			ont := ontology.MustNew(ontology.Options{})
			fmt.Fprintln(out, eval.RunA7(recs, ont))
		case "A8":
			res, err := eval.RunA8(recs, *seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, res)
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
		return nil
	}

	if strings.EqualFold(*exp, "all") {
		for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "F1", "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8"} {
			fmt.Fprintf(out, "================ %s ================\n", id)
			if err := runOne(id); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		return nil
	}
	return runOne(strings.ToUpper(*exp))
}
