// Command medex runs the full extraction pipeline over a corpus
// directory (as produced by gencorpus), persists structured results to
// an embedded database, and answers queries over the persisted table.
//
// Usage:
//
//	medex [extract] -corpus corpus/ [-db extracted.db] [-shards 4]
//	      [-compact] [-strategy link-grammar] [-synonyms] [-train-smoking]
//	medex query -db extracted.db -attr pulse -min 100
//	medex query -db extracted.db -attr smoking -value current
//	medex query -db extracted.db -patient 12
//
// -shards 1 (the default) writes the single-file layout earlier
// versions produced; -shards N partitions the store across N shard
// WALs so ingest and queries parallelize. query auto-detects the
// layout on disk.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"sort"
	"strings"

	"repro/internal/classify"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/records"
	"repro/internal/store"
)

// persistEvery is how many extractions medex accumulates before one
// batched persistence call (one WAL record per ~batch).
const persistEvery = 64

func main() {
	log.SetFlags(0)
	log.SetPrefix("medex: ")

	args := os.Args[1:]
	cmd := "extract"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "extract":
		err = runExtract(args)
	case "query":
		err = runQuery(args, os.Stdout)
	default:
		err = fmt.Errorf("unknown command %q (want extract or query)", cmd)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func runExtract(args []string) error {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	corpusDir := fs.String("corpus", "corpus", "corpus directory with gold.json")
	dbPath := fs.String("db", "", "embedded database file for extracted information (empty = in-memory)")
	strategyName := fs.String("strategy", "link-grammar", "number association strategy: link-grammar | pattern-only | proximity-only")
	synonyms := fs.Bool("synonyms", true, "resolve synonyms when assigning predefined terms")
	trainSmoking := fs.Bool("train-smoking", true, "train the smoking classifier on the corpus gold labels")
	backendName := fs.String("backend", "id3", "classification backend for the smoking classifier: id3 | gini | vector")
	verbose := fs.Bool("v", false, "print every extracted attribute")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 1, "store shard count (1 = single-file layout, compatible with old databases)")
	compact := fs.Bool("compact", false, "compact the database after ingest: fold rows into immutable sorted segment files and shrink the WAL")
	fs.Parse(args)
	if fs.NArg() > 0 {
		return fmt.Errorf("extract: unexpected argument %q", fs.Arg(0))
	}
	dbCheck := func() error {
		if *dbPath == "" {
			return nil // in-memory store
		}
		return cliutil.DBPath("-db", *dbPath)
	}
	if err := cliutil.FirstErr(
		cliutil.Shards("-shards", *shards),
		cliutil.NonNegative("-workers", *workers),
		cliutil.OneOf("-backend", *backendName, classify.Names()...),
		cliutil.ExistingDir("-corpus", *corpusDir),
		dbCheck(),
	); err != nil {
		return fmt.Errorf("extract: %w", err)
	}

	strategy, err := core.ParseStrategy(*strategyName)
	if err != nil {
		return err
	}
	backend, err := classify.New(*backendName)
	if err != nil {
		return fmt.Errorf("extract: %w", err)
	}
	recs, err := records.ReadCorpus(*corpusDir)
	if err != nil {
		return fmt.Errorf("reading corpus: %v (run gencorpus first)", err)
	}

	sys, err := core.NewSystem(core.Config{Strategy: strategy, ResolveSynonyms: *synonyms})
	if err != nil {
		return err
	}
	if *trainSmoking {
		sys.TrainSmokingWith(recs, backend)
	}

	var db *store.DB
	if *dbPath != "" {
		db, err = store.OpenSharded(*dbPath, *shards)
		if err != nil {
			return err
		}
		defer db.Close()
	} else {
		db = store.OpenMemorySharded(*shards)
	}
	// Opening the warehouse before ingest creates the extracted table's
	// secondary indexes up front, so every InsertBatch maintains them
	// transactionally and `medex query` answers from the index.
	if _, err := core.OpenWarehouse(db, nil); err != nil {
		return err
	}

	// Stream extractions in corpus order with bounded memory, persisting
	// a batch at a time so the WAL sees a few large records instead of
	// one per attribute row.
	rows, processed := 0, 0
	batch := make([]core.Extraction, 0, persistEvery)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		n, err := core.PersistAll(db, batch)
		if err != nil {
			return fmt.Errorf("persisting batch ending at record %d: %v", recs[processed-1].ID, err)
		}
		rows += n
		batch = batch[:0]
		return nil
	}
	for _, ex := range sys.ProcessStream(context.Background(), slices.Values(recs), *workers) {
		batch = append(batch, ex)
		processed++
		if len(batch) >= persistEvery {
			if err := flush(); err != nil {
				return err
			}
		}
		if *verbose {
			printExtraction(ex)
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if *compact {
		if *dbPath == "" {
			return fmt.Errorf("extract: -compact needs a file-backed database (-db)")
		}
		if err := db.Compact(); err != nil {
			return fmt.Errorf("compacting: %v", err)
		}
	}
	fmt.Printf("processed %d records, persisted %d attribute rows", processed, rows)
	if *trainSmoking {
		fmt.Printf(" (smoking backend %s, %s)", backend.Name(), backend.Params())
	}
	if *dbPath != "" {
		fmt.Printf(" to %s", *dbPath)
		if *compact {
			cs := db.CompactionStats()
			fmt.Printf(" (compacted to segments: %d rows, %d bytes rewritten)", cs.RowsRewritten, cs.BytesRewritten)
		}
	}
	fmt.Println()
	return nil
}

func printExtraction(ex core.Extraction) {
	fmt.Printf("patient %d\n", ex.Patient)
	attrs := make([]string, 0, len(ex.Numeric))
	for a := range ex.Numeric {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	for _, a := range attrs {
		v := ex.Numeric[a]
		if v.Ratio {
			fmt.Printf("  %-22s %g/%g\n", a, v.Value, v.Value2)
		} else {
			fmt.Printf("  %-22s %g\n", a, v.Value)
		}
	}
	if len(ex.PreMedical) > 0 {
		fmt.Printf("  %-22s %s\n", "pre medical", strings.Join(ex.PreMedical, "; "))
	}
	if len(ex.OtherMedical) > 0 {
		fmt.Printf("  %-22s %s\n", "other medical", strings.Join(ex.OtherMedical, "; "))
	}
	if len(ex.PreSurgical) > 0 {
		fmt.Printf("  %-22s %s\n", "pre surgical", strings.Join(ex.PreSurgical, "; "))
	}
	if len(ex.OtherSurgical) > 0 {
		fmt.Printf("  %-22s %s\n", "other surgical", strings.Join(ex.OtherSurgical, "; "))
	}
	if len(ex.Medications) > 0 {
		fmt.Printf("  %-22s %s\n", "medications", strings.Join(ex.Medications, "; "))
	}
	if ex.Smoking != "" {
		fmt.Printf("  %-22s %s\n", "smoking", ex.Smoking)
	}
}
