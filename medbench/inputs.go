package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/records"
	"repro/internal/store"
)

// sizes fixes how big one run is. fullSizes is the benchmark; the tests
// use a miniature with the same shape.
type sizes struct {
	Patients    int // warehouse patients; ids 1..Patients
	SourceNotes int // distinct generated notes the warehouse copies
	Chunks      int // persist chunks, each followed by a Flush: runs per shard
	Shards      int
	TrainNotes  int // labeled notes the smoking classifier trains on
	IngestPool  int // distinct notes the ingest workload cycles through
	Setups      int // daemon starts per run; setup_s is their median
	Warmup      time.Duration
}

// fullSizes: 24,000 patients of ~17 rows each, ~414k rows in 4 shards
// of 4 runs each. The ~1,600 decoded blocks (~64 MB) are about twice
// the daemon's default 32 MiB block cache, so cohort questions run on
// the cache-miss path while chart's hot patients fit the cache.
var fullSizes = sizes{
	Patients:    24000,
	SourceNotes: 400,
	Chunks:      4,
	Shards:      4,
	TrainNotes:  50,
	IngestPool:  1024,
	Setups:      4,
	Warmup:      3 * time.Second,
}

// noteStyle is the style diversity of every generated consultation note.
const noteStyle = 0.3

// subSeed derives the seed of one input family from the run seed, so
// notes, training corpus and request streams stay independent.
func subSeed(seed int64, family int64) int64 { return seed*7919 + family }

const (
	famSource = iota + 1
	famTrain
	famIngest
	famRequests
	famAssign
)

// genNotes generates n consultation notes in the benchmark's style.
func genNotes(n int, seed int64) []records.Record {
	opts := records.DefaultGenOptions()
	opts.N = n
	opts.Seed = seed
	opts.StyleDiversity = noteStyle
	return records.Generate(opts)
}

// renumber rewrites a generated note to belong to patient newID. The
// generator writes the id in the Patient section and in the history's
// "Ms. <id>".
func renumber(text string, oldID, newID int) string {
	o, n := strconv.Itoa(oldID), strconv.Itoa(newID)
	text = strings.Replace(text, "Patient:  "+o+"\n", "Patient:  "+n+"\n", 1)
	return strings.Replace(text, "Ms. "+o+" ", "Ms. "+n+" ", 1)
}

// rowKey is one chart row as the daemon serves it, for comparison.
type rowKey struct {
	Attr  string
	Value string
	Num   float64
}

// rowsByNote persists each extraction into an in-memory store under
// its own index as patient id, through the same core.PersistAll the
// daemon uses, and returns every extraction's rows.
func rowsByNote(exs []core.Extraction) ([][]rowKey, error) {
	db := store.OpenMemory()
	defer db.Close()
	relabeled := make([]core.Extraction, len(exs))
	for i, ex := range exs {
		ex.Patient = i
		relabeled[i] = ex
	}
	if _, err := core.PersistAll(db, relabeled); err != nil {
		return nil, err
	}
	tbl, err := db.Table(core.ResultTable)
	if err != nil {
		return nil, err
	}
	out := make([][]rowKey, len(exs))
	tbl.Scan(func(r store.Row) bool {
		i := r[1].I
		out[i] = append(out[i], rowKey{Attr: r[2].S, Value: r[3].S, Num: r[4].F})
		return true
	})
	return out, nil
}

// inputs is everything a run derives from its seed before the daemon
// starts: the trained reference pipeline, the preloaded warehouse on
// disk, and the answers the daemon must give.
type inputs struct {
	seed int64
	sz   sizes

	sys      *core.System // trained exactly like the daemon
	trainDir string       // the daemon's -train-corpus
	pristine string       // the built warehouse; only ever copied

	sourceRows [][]rowKey // rows of each source note's extraction
	copyOf     []int      // copyOf[p-1]: the source note patient p copies

	preloadRows      int64
	preloadNoteBytes int64
	fingerprint      string
}

// prepare generates the run's inputs and builds the warehouse under dir.
func prepare(dir string, seed int64, sz sizes) (*inputs, error) {
	in := &inputs{seed: seed, sz: sz, trainDir: filepath.Join(dir, "train"), pristine: filepath.Join(dir, "warehouse")}

	train := records.DefaultGenOptions()
	train.N = sz.TrainNotes
	train.Seed = subSeed(seed, famTrain)
	if err := records.WriteCorpus(in.trainDir, records.Generate(train)); err != nil {
		return nil, fmt.Errorf("writing training corpus: %w", err)
	}
	sys, err := trainedSystem(in.trainDir)
	if err != nil {
		return nil, err
	}
	in.sys = sys

	src := genNotes(sz.SourceNotes, subSeed(seed, famSource))
	exs := sys.ProcessAll(src, 0)
	if in.sourceRows, err = rowsByNote(exs); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(subSeed(seed, famAssign)))
	in.copyOf = make([]int, sz.Patients)
	for p := range in.copyOf {
		s := rng.Intn(len(src))
		in.copyOf[p] = s
		in.preloadRows += int64(len(in.sourceRows[s]))
		in.preloadNoteBytes += int64(len(renumber(src[s].Text, src[s].ID, p+1)))
	}
	if err := buildWarehouse(in.pristine, sz, exs, in.copyOf); err != nil {
		return nil, fmt.Errorf("building warehouse: %w", err)
	}
	in.fingerprint, err = in.fingerprintOf(in.pristine)
	return in, err
}

// trainedSystem assembles the pipeline the way medexd does: link-grammar
// numbers, synonym resolution, and the ID3 smoking classifier trained on
// the corpus directory.
func trainedSystem(trainDir string) (*core.System, error) {
	sys, err := core.NewSystem(core.Config{Strategy: core.LinkGrammar, ResolveSynonyms: true})
	if err != nil {
		return nil, err
	}
	recs, err := records.ReadCorpus(trainDir)
	if err != nil {
		return nil, err
	}
	backend, err := classify.New("id3")
	if err != nil {
		return nil, err
	}
	sys.TrainSmokingWith(recs, backend)
	return sys, nil
}

// buildWarehouse persists one copy of a source extraction per patient,
// in sz.Chunks equal chunks with a Flush after each, on a store without
// background compaction: one seed always gives the same run stack, and
// the memtable ends empty.
func buildWarehouse(dir string, sz sizes, exs []core.Extraction, copyOf []int) error {
	if sz.Patients%sz.Chunks != 0 {
		return fmt.Errorf("%d patients do not split into %d chunks", sz.Patients, sz.Chunks)
	}
	db, err := store.OpenSharded(dir, sz.Shards)
	if err != nil {
		return err
	}
	if _, err := core.OpenWarehouse(db, nil); err != nil { // table and indexes
		db.Close()
		return err
	}
	per := sz.Patients / sz.Chunks
	for c := 0; c < sz.Chunks; c++ {
		batch := make([]core.Extraction, 0, per)
		for p := c*per + 1; p <= (c+1)*per; p++ {
			ex := exs[copyOf[p-1]]
			ex.Patient = p
			batch = append(batch, ex)
		}
		if _, err := core.PersistAll(db, batch); err != nil {
			db.Close()
			return err
		}
		if err := db.Flush(); err != nil {
			db.Close()
			return err
		}
	}
	if err := db.Sync(); err != nil {
		db.Close()
		return err
	}
	return db.Close()
}

// fingerprintOf summarizes what a seed built: rows, per-attribute row
// counts, and segment files per shard. Two builds from one seed must
// agree on it.
func (in *inputs) fingerprintOf(dir string) (string, error) {
	perAttr := map[string]int{}
	for _, s := range in.copyOf {
		for _, r := range in.sourceRows[s] {
			perAttr[r.Attr]++
		}
	}
	attrs := make([]string, 0, len(perAttr))
	for a := range perAttr {
		attrs = append(attrs, a)
	}
	slices.Sort(attrs)
	var b strings.Builder
	fmt.Fprintf(&b, "rows=%d", in.preloadRows)
	for _, a := range attrs {
		fmt.Fprintf(&b, " %s=%d", strings.ReplaceAll(a, " ", "_"), perAttr[a])
	}
	for i := 0; i < in.sz.Shards; i++ {
		segs, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-%03d", i), "*.segs", "*.seg"))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, " shard%d_segments=%d", i, len(segs))
	}
	return b.String(), nil
}

// hotPatients is the newest 5% of patients: most of chart's reads land
// there, and their blocks fit the cache.
func (in *inputs) hotPatients() (first, last int) {
	return in.sz.Patients - in.sz.Patients/20 + 1, in.sz.Patients
}

// patientRows returns patient p's preloaded rows.
func (in *inputs) patientRows(p int) []rowKey {
	if p < 1 || p > len(in.copyOf) {
		return nil
	}
	return in.sourceRows[in.copyOf[p-1]]
}

// ndjson renders one note the way an ingest client posts it.
func ndjson(id int, text string) []byte {
	line, _ := json.Marshal(struct {
		ID   int    `json:"id"`
		Text string `json:"text"`
	}{id, text}) // a struct of an int and a string always marshals
	return append(line, '\n')
}

// batch is one prepared ingest request and what its 202 must say.
type batch struct {
	body      []byte
	notes     []records.Record
	rows      int   // rows the daemon must report
	noteBytes int64 // note text the batch adds to the store
	perNote   [][]rowKey
}

// makeBatches turns notes into requests of per notes each, with the
// row counts the reference pipeline extracts from them.
func (in *inputs) makeBatches(notes []records.Record, per int) ([]batch, error) {
	exs := in.sys.ProcessAll(notes, 0)
	rows, err := rowsByNote(exs)
	if err != nil {
		return nil, err
	}
	var out []batch
	for start := 0; start+per <= len(notes); start += per {
		b := batch{notes: notes[start : start+per], perNote: rows[start : start+per]}
		for i, n := range b.notes {
			b.body = append(b.body, ndjson(n.ID, n.Text)...)
			b.rows += len(b.perNote[i])
			b.noteBytes += int64(len(n.Text))
		}
		out = append(out, b)
	}
	return out, nil
}

// ingestBatches is the ingest workload's request pool: pool full notes
// for fresh patients past the warehouse, 16 per request, cycled.
func (in *inputs) ingestBatches(pool int) ([]batch, error) {
	notes := genNotes(pool, subSeed(in.seed, famIngest))
	for i := range notes {
		id := in.sz.Patients + 1 + i
		notes[i].Text = renumber(notes[i].Text, notes[i].ID, id)
		notes[i].ID = id
	}
	return in.makeBatches(notes, ingestPerRequest)
}

// copyStore copies a store directory and makes the copy durable — every
// file and directory fsynced — before anything opens it.
func copyStore(src, dst string) error {
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(target, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(data); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	if err != nil {
		return err
	}
	return filepath.WalkDir(dst, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return f.Sync()
	})
}

// diskBytes sums the regular files under dir.
func diskBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
