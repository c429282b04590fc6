package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/classify"
	"repro/internal/ontology"
	"repro/internal/records"
	"repro/internal/store"
	"repro/internal/textproc"
)

// System is the assembled extraction pipeline of Figure 2: tokenization
// and sectioning (textproc, standing in for GATE), the link grammar
// parser, the lexicon (WordNet), the ontology (UMLS in DB2), and the ID3
// classifier, producing structured records persisted to an embedded
// store (Access).
type System struct {
	Numeric *NumericExtractor
	Terms   *TermExtractor
	Smoking *CategoricalClassifier // nil until trained
}

// Config selects system variants for the experiments.
type Config struct {
	Strategy        Strategy // numeric association strategy
	ResolveSynonyms bool     // predefined-term synonym resolution (§5 improvement)
	Ontology        *ontology.Ontology
}

// NewSystem assembles a pipeline. A nil ontology loads the full embedded
// vocabulary.
func NewSystem(cfg Config) (*System, error) {
	ont := cfg.Ontology
	if ont == nil {
		var err error
		ont, err = ontology.New(ontology.Options{})
		if err != nil {
			return nil, err
		}
	}
	return &System{
		Numeric: NewNumericExtractor(cfg.Strategy),
		Terms:   &TermExtractor{Ont: ont, ResolveSynonyms: cfg.ResolveSynonyms},
	}, nil
}

// Extraction is the structured output for one record.
type Extraction struct {
	Patient       int
	Numeric       map[string]NumericValue
	PreMedical    []string // predefined past medical history
	OtherMedical  []string
	PreSurgical   []string // predefined past surgical history
	OtherSurgical []string
	Medications   []string
	Smoking       string
}

// Process extracts all attributes from one record text. It analyzes the
// text once and delegates to ProcessDoc.
func (s *System) Process(recordText string) Extraction {
	return s.ProcessDoc(textproc.Analyze(recordText))
}

// ProcessDoc extracts all attributes from an analyzed record. Every
// extractor shares the document's single tokenization / sentence /
// section analysis; none re-runs a text pass.
func (s *System) ProcessDoc(doc *textproc.Document) Extraction {
	ex := Extraction{Numeric: s.Numeric.ExtractDoc(doc)}
	if sec, ok := doc.Section("Patient"); ok {
		id, err := strconv.Atoi(strings.TrimSpace(sec.Body))
		if err == nil {
			ex.Patient = id
		}
		// A malformed patient section leaves Patient zero; downstream
		// consumers treat 0 as "no patient id".
	}
	if sec, ok := doc.Section("Past Medical History"); ok {
		terms := s.Terms.ExtractSection(sec, ontology.PredefinedMedical)
		ex.PreMedical, ex.OtherMedical = SplitTerms(terms)
	}
	if sec, ok := doc.Section("Past Surgical History"); ok {
		terms := s.Terms.ExtractSection(sec, ontology.PredefinedSurgical)
		ex.PreSurgical, ex.OtherSurgical = SplitTerms(terms)
	}
	if sec, ok := doc.Section("Medications"); ok {
		for _, t := range s.Terms.ExtractSection(sec, nil) {
			if t.Concept.Type == ontology.Medication {
				ex.Medications = append(ex.Medications, t.Concept.Preferred)
			}
		}
	}
	if s.Smoking != nil {
		ex.Smoking = s.Smoking.ClassifyDoc(doc)
	}
	return ex
}

// TrainSmoking fits the smoking classifier on labeled records with the
// default (ID3) backend; subsequent Process calls fill
// Extraction.Smoking.
func (s *System) TrainSmoking(recs []records.Record) {
	s.TrainSmokingWith(recs, nil)
}

// TrainSmokingWith fits the smoking classifier with the given
// classification backend (nil = the ID3 default).
func (s *System) TrainSmokingWith(recs []records.Record, b classify.Backend) {
	s.Smoking = TrainCategorical(SmokingField().WithBackend(b), recs)
}

// ResultTable names the persisted extracted-information table, so
// monitoring code (the medexd stats endpoint) can reach it without
// hard-coding the string.
const ResultTable = "extracted"

// resultSchema is the persisted extracted-information table: one row per
// (patient, attribute, value), the paper's Access database.
func resultSchema() store.Schema {
	return store.Schema{
		Name: ResultTable,
		Columns: []store.Column{
			{Name: "id", Type: store.TInt},
			{Name: "patient", Type: store.TInt},
			{Name: "attribute", Type: store.TString},
			{Name: "value", Type: store.TString},
			{Name: "numeric", Type: store.TFloat},
		},
		Primary: 0,
	}
}

// extractionRows builds the table rows of one extraction, assigning ids
// from next upward. Numeric attributes are emitted in sorted order so the
// persisted layout is deterministic.
func extractionRows(ex Extraction, next int64) []store.Row {
	var rows []store.Row
	put := func(attr, val string, num float64) {
		rows = append(rows, store.Row{
			store.Int(next), store.Int(int64(ex.Patient)),
			store.Str(attr), store.Str(val), store.Float(num),
		})
		next++
	}
	numAttrs := make([]string, 0, len(ex.Numeric))
	for attr := range ex.Numeric {
		numAttrs = append(numAttrs, attr)
	}
	sort.Strings(numAttrs)
	for _, attr := range numAttrs {
		v := ex.Numeric[attr]
		val := fmt.Sprintf("%g", v.Value)
		if v.Ratio {
			val = fmt.Sprintf("%g/%g", v.Value, v.Value2)
		}
		put(attr, val, v.Value)
	}
	lists := []struct {
		attr  string
		terms []string
	}{
		{"predefined past medical history", ex.PreMedical},
		{"other past medical history", ex.OtherMedical},
		{"predefined past surgical history", ex.PreSurgical},
		{"other past surgical history", ex.OtherSurgical},
		{"medications", ex.Medications},
	}
	for _, l := range lists {
		for _, t := range l.terms {
			put(l.attr, t, 0)
		}
	}
	if ex.Smoking != "" {
		put("smoking", ex.Smoking, 0)
	}
	return rows
}

// persistBatchRows is how many rows PersistAll groups into one WAL record:
// large enough to amortize framing and flush cost, small enough to keep
// individual log records modest.
const persistBatchRows = 512

// Storage is the part of *store.DB that PersistAll, the Ingester and
// OpenWarehouse use; tests wrap a *store.DB to gate Sync.
type Storage interface {
	CreateTable(s store.Schema) (*store.Table, error)
	Sync() error
}

// PersistAll writes many extractions into the database, creating the
// extracted table once and batching rows into a few WAL records instead
// of logging row-at-a-time. It returns the number of rows written.
//
// On a sharded store each InsertBatch call routes its rows to their
// home shards and flushes the per-shard sub-batches to the shard WALs
// in parallel, so ingest throughput scales with the shard count instead
// of serializing on one log mutex.
func PersistAll(db Storage, exs []Extraction) (int, error) {
	tbl, err := db.CreateTable(resultSchema())
	if err != nil {
		return 0, err
	}
	// Seed ids past the largest existing key, not the row count: a
	// recovered store can hold sparse ids (a torn shard WAL drops rows
	// from the middle of the id space), and Len()+1 would collide.
	next := int64(1)
	if maxPK, ok := tbl.MaxPK(); ok {
		next = maxPK.I + 1
	}
	written := 0
	batch := make([]store.Row, 0, persistBatchRows)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := tbl.InsertBatch(batch); err != nil {
			return err
		}
		written += len(batch)
		batch = batch[:0]
		return nil
	}
	for _, ex := range exs {
		rows := extractionRows(ex, next)
		next += int64(len(rows))
		for _, row := range rows {
			batch = append(batch, row)
			if len(batch) >= persistBatchRows {
				if err := flush(); err != nil {
					return written, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return written, err
	}
	return written, nil
}
