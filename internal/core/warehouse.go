package core

import (
	"fmt"
	"sort"

	"repro/internal/lexicon"
	"repro/internal/ontology"
	"repro/internal/store"
)

// Warehouse is the query facade over the persisted extracted table: the
// paper's point that free-text records become *queryable* information.
// It answers attribute questions ("patients with pulse above 100 and a
// positive smoking status") directly from the store through secondary
// indexes, and is safe to use concurrently with a live ingest — queries
// run under the shards' read locks while ProcessStream + PersistAll keep
// inserting. On a sharded engine every condition fans out across the
// shards concurrently and the merged rows and QueryStats come back as
// one answer, so questions see the whole table regardless of how it is
// partitioned.
type Warehouse struct {
	tbl *store.Table
	ont *ontology.Ontology // optional: resolves concept terms to preferred names
}

// OpenWarehouse opens (creating if necessary) the extracted table in db
// and ensures its secondary indexes on the attribute and patient columns.
// The attribute index includes every other column, so it covers the
// table: Ask, Rows and Prevalence answer from its postings and read no
// segment block. The patient index includes nothing: a chart reads
// whole rows, which the block cache serves. A store whose attribute
// index predates the include list gets it rebuilt here, once.
// A nil ontology disables synonym resolution in term conditions; terms
// then match by normalized string only.
func OpenWarehouse(db Storage, ont *ontology.Ontology) (*Warehouse, error) {
	tbl, err := db.CreateTable(resultSchema())
	if err != nil {
		return nil, err
	}
	if err := tbl.CreateIndex("attribute", "patient", "value", "numeric"); err != nil {
		return nil, err
	}
	if err := tbl.CreateIndex("patient"); err != nil {
		return nil, err
	}
	return &Warehouse{tbl: tbl, ont: ont}, nil
}

// Table exposes the underlying extracted table (for stats and ad-hoc
// store.Query use).
func (w *Warehouse) Table() *store.Table { return w.tbl }

// AttrRow is one extracted attribute value, typed.
type AttrRow struct {
	ID        int64
	Patient   int64
	Attribute string
	Value     string
	Numeric   float64
}

func attrRowFrom(r store.Row) AttrRow {
	return AttrRow{
		ID:        r[0].I,
		Patient:   r[1].I,
		Attribute: r[2].S,
		Value:     r[3].S,
		Numeric:   r[4].F,
	}
}

// Cond is one condition of a warehouse question, on a single attribute.
// Conditions on different attributes combine per patient: Ask returns
// the patients satisfying all of them.
type Cond struct {
	Attr     string   // attribute name, e.g. "pulse", "smoking"
	Term     string   // equality on the value column (concept term), "" = any
	Min, Max *float64 // bounds on the numeric column
	MinExcl  bool     // Min is exclusive (">"), default inclusive (">=")
	MaxExcl  bool     // Max is exclusive ("<"), default inclusive ("<=")
}

// HasAttr matches patients that have any value for the attribute.
func HasAttr(attr string) Cond { return Cond{Attr: attr} }

// HasTerm matches patients whose attribute equals the concept term
// (resolved through the ontology's synonyms when one is configured).
func HasTerm(attr, term string) Cond { return Cond{Attr: attr, Term: term} }

// NumAbove matches attribute values strictly greater than v.
func NumAbove(attr string, v float64) Cond {
	return Cond{Attr: attr, Min: &v, MinExcl: true}
}

// NumBelow matches attribute values strictly less than v.
func NumBelow(attr string, v float64) Cond {
	return Cond{Attr: attr, Max: &v, MaxExcl: true}
}

// NumBetween matches attribute values in [lo, hi].
func NumBetween(attr string, lo, hi float64) Cond {
	return Cond{Attr: attr, Min: &lo, Max: &hi}
}

// preds lowers the condition to store predicates. The attribute equality
// comes first so the planner picks the attribute index.
func (c Cond) preds(w *Warehouse) ([]store.Pred, error) {
	if c.Attr == "" {
		return nil, fmt.Errorf("core: warehouse condition needs an attribute")
	}
	ps := []store.Pred{store.Eq("attribute", store.Str(c.Attr))}
	if c.Term != "" {
		ps = append(ps, store.Eq("value", store.Str(w.resolveTerm(c.Term))))
	}
	if c.Min != nil {
		if c.MinExcl {
			ps = append(ps, store.Gt("numeric", store.Float(*c.Min)))
		} else {
			ps = append(ps, store.Ge("numeric", store.Float(*c.Min)))
		}
	}
	if c.Max != nil {
		if c.MaxExcl {
			ps = append(ps, store.Lt("numeric", store.Float(*c.Max)))
		} else {
			ps = append(ps, store.Le("numeric", store.Float(*c.Max)))
		}
	}
	return ps, nil
}

// resolveTerm maps a user term to the stored value form: the ontology's
// preferred concept name when the term is known (so "heart attack" finds
// "myocardial infarction" rows), otherwise its normalized form.
func (w *Warehouse) resolveTerm(term string) string {
	if w.ont != nil {
		if c := w.ont.Lookup(term); c != nil {
			return c.Preferred
		}
	}
	return lexicon.Normalize(term)
}

// QueryStats aggregates the store-level execution stats of a warehouse
// question, one entry per condition. On a sharded engine the per-shard
// stats of each condition arrive pre-merged; Shards reports the fan-out
// width.
type QueryStats struct {
	Conds        int
	IndexedConds int // conditions answered via a secondary index
	CoveredConds int // of those, answered from the index alone (index-only: no block read)
	IndexProbes  int
	RowsExamined int
	FullScans    int
	Shards       int // partitions each condition fanned out across
	Segments     int // segment files consulted (scans and index-entry resolves)
	BlocksPruned int // segment blocks skipped via zone maps
	CacheHits    int // blocks served from the shared decoded-block cache
	CacheMisses  int // blocks read from disk (and cached for next time)
}

func (s *QueryStats) add(st store.QueryStats) {
	s.Conds++
	if st.UsedIndex {
		s.IndexedConds++
	}
	if st.Covered {
		s.CoveredConds++
	}
	if st.FullScan {
		s.FullScans++
	}
	s.IndexProbes += st.IndexProbes
	s.RowsExamined += st.RowsExamined
	if st.Shards > s.Shards {
		s.Shards = st.Shards
	}
	s.Segments += st.Segments
	s.BlocksPruned += st.BlocksPruned
	s.CacheHits += st.CacheHits
	s.CacheMisses += st.CacheMisses
}

// Ask answers a paper-style question: it returns the sorted patient ids
// satisfying every condition. Each condition resolves to one indexed
// store query; patient sets intersect across conditions.
func (w *Warehouse) Ask(conds ...Cond) ([]int64, QueryStats, error) {
	var stats QueryStats
	if len(conds) == 0 {
		return nil, stats, fmt.Errorf("core: warehouse question needs at least one condition")
	}
	var matched map[int64]bool
	for _, c := range conds {
		ps, err := c.preds(w)
		if err != nil {
			return nil, stats, err
		}
		rows, st, err := w.tbl.Query(store.Query{Preds: ps})
		if err != nil {
			return nil, stats, err
		}
		stats.add(st)
		patients := make(map[int64]bool, len(rows))
		for _, r := range rows {
			patients[r[1].I] = true
		}
		if matched == nil {
			matched = patients
			continue
		}
		for p := range matched {
			if !patients[p] {
				delete(matched, p)
			}
		}
		if len(matched) == 0 {
			break
		}
	}
	out := make([]int64, 0, len(matched))
	for p := range matched {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, stats, nil
}

// Rows returns the attribute rows matching one condition, in ascending
// primary-key order.
func (w *Warehouse) Rows(c Cond) ([]AttrRow, QueryStats, error) {
	var stats QueryStats
	ps, err := c.preds(w)
	if err != nil {
		return nil, stats, err
	}
	rows, st, err := w.tbl.Query(store.Query{Preds: ps})
	if err != nil {
		return nil, stats, err
	}
	stats.add(st)
	out := make([]AttrRow, len(rows))
	for i, r := range rows {
		out[i] = attrRowFrom(r)
	}
	return out, stats, nil
}

// Patient returns every attribute row of one patient via the patient
// index, sorted by attribute then id.
func (w *Warehouse) Patient(id int64) ([]AttrRow, error) {
	rows, err := w.tbl.Lookup("patient", store.Int(id))
	if err != nil {
		return nil, err
	}
	out := make([]AttrRow, len(rows))
	for i, r := range rows {
		out[i] = attrRowFrom(r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Attribute != out[j].Attribute {
			return out[i].Attribute < out[j].Attribute
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// Prevalence counts patients per distinct value of an attribute.
func (w *Warehouse) Prevalence(attr string) (map[string]int, error) {
	rows, _, err := w.Rows(HasAttr(attr))
	if err != nil {
		return nil, err
	}
	seen := make(map[string]map[int64]bool)
	for _, r := range rows {
		if seen[r.Value] == nil {
			seen[r.Value] = make(map[int64]bool)
		}
		seen[r.Value][r.Patient] = true
	}
	out := make(map[string]int, len(seen))
	for v, pats := range seen {
		out[v] = len(pats)
	}
	return out, nil
}
