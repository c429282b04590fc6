package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/lexicon"
	"repro/internal/linkgram"
	"repro/internal/ontology"
	"repro/internal/pos"
	"repro/internal/records"
	"repro/internal/store"
	"repro/internal/textproc"
)

// span is one timed call at a layer boundary. Spans of one request
// share Req; a root span has Parent -1.
type span struct {
	Name   string `json:"name"`
	Req    int32  `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory on one goroutine; they are written out
// when the run ends.
type tracer struct {
	base  time.Time
	spans []span
	stack []int32
	req   int32
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// root opens the span of a new request.
func (t *tracer) root(name string) {
	t.req++
	t.begin(name)
}

func (t *tracer) begin(name string) {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, int32(len(t.spans)))
	t.spans = append(t.spans, span{Name: name, Req: t.req, Parent: parent, Start: int64(time.Since(t.base))})
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id]
	s.End = int64(time.Since(t.base))
	return time.Duration(s.End - s.Start)
}

// selfTimes returns each span's duration minus its children's.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// passes snapshots the NLP layers' process-wide pass counters.
type passes struct{ splits, tokenizes, tags, parses uint64 }

func passesNow() passes {
	s, t := textproc.AnalysisCounts()
	return passes{splits: s, tokenizes: t, tags: pos.TagPasses(), parses: linkgram.ParsePasses()}
}

func (p passes) since(q passes) passes {
	return passes{p.splits - q.splits, p.tokenizes - q.tokenizes, p.tags - q.tags, p.parses - q.parses}
}

// sentRef names sentence i of section sec.
type sentRef struct{ sec, i int }

// touched is what a plain ProcessDoc of one note analyzes: the sections
// it splits into sentences and the sentences it tags and parses.
type touched struct {
	sections       []int
	tagged, parsed []sentRef
}

// tracedRun replays requests in process against a fresh copy of the
// warehouse. Where a public function calls the next layer internally
// (System.ProcessDoc, Warehouse.Ask, Warehouse.Patient), it calls the
// inner public functions itself, timing each as a span, and checks the
// result against the composite call on the same inputs.
type tracedRun struct {
	ctx   context.Context
	in    *inputs
	t     *tracer
	sys   *core.System
	ont   *ontology.Ontology // the warehouse's, for term resolution
	db    *store.DB
	wh    *core.Warehouse
	tbl   *store.Table
	probe map[*batch][]touched

	notes, persistRows, walBytes int64
	pass                         passes // traced deltas
	parseAttempts, noLinkage     int64

	queries, results, examined, probes, segments int64

	own                []float64 // us, traced durations of the workload's own requests
	tracedT, untracedT time.Duration
	mismatches         []string
}

func (r *tracedRun) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// setup times the daemon's start-up calls, one span each, on a fresh
// copy of the warehouse: store recovery, ontology, pipeline, classifier
// training and the warehouse facade. The last repetition's objects
// serve the replay.
func (r *tracedRun) setup(dir string, reps int) error {
	recs, err := records.ReadCorpus(r.in.trainDir)
	if err != nil {
		return err
	}
	for rep := 0; rep < reps; rep++ {
		if r.db != nil {
			r.db.Close()
		}
		path := filepath.Join(dir, "trace-db-"+strconv.Itoa(rep))
		if err := copyStore(r.in.pristine, path); err != nil {
			return err
		}
		backend, err := classify.New("id3")
		if err != nil {
			return err
		}
		t := r.t
		t.root("setup")
		t.begin("store.open")
		db, err := store.OpenSharded(path, 0)
		t.end()
		if err != nil {
			t.end()
			return err
		}
		r.db = db
		t.begin("ontology.new")
		ont, err1 := ontology.New(ontology.Options{})
		t.end()
		t.begin("core.new_system")
		sys, err2 := core.NewSystem(core.Config{Strategy: core.LinkGrammar, ResolveSynonyms: true, Ontology: ont})
		t.end()
		if err := errors.Join(err1, err2); err != nil {
			t.end()
			return err
		}
		t.begin("core.train_smoking")
		sys.TrainSmokingWith(recs, backend)
		t.end()
		t.begin("ontology.new")
		r.ont, err = ontology.New(ontology.Options{})
		t.end()
		if err != nil {
			t.end()
			return err
		}
		t.begin("core.open_warehouse")
		r.wh, err = core.OpenWarehouse(db, r.ont)
		t.end()
		t.end()
		if err != nil {
			return err
		}
		r.sys, r.tbl = sys, r.wh.Table()
	}
	return nil
}

func (r *tracedRun) close() {
	if r.db != nil {
		r.db.Close()
	}
}

// touchedBy runs a plain ProcessDoc over a throwaway Document and reads
// back which sections, tags and parses it memoized, so the traced
// pipeline does exactly that work and no more.
func (r *tracedRun) touchedBy(text string) touched {
	doc := textproc.Analyze(text)
	r.sys.ProcessDoc(doc)
	var tc touched
	for k, sec := range doc.Sections {
		_, tok0 := textproc.AnalysisCounts()
		sents := sec.Sentences()
		if _, tok1 := textproc.AnalysisCounts(); tok1 != tok0 {
			continue // ProcessDoc never split this section
		}
		tc.sections = append(tc.sections, k)
		for i := range sents {
			d := sec.Derived(i)
			fresh := false
			d.Tags(func() any { fresh = true; return nil })
			if !fresh {
				tc.tagged = append(tc.tagged, sentRef{k, i})
			}
			fresh = false
			d.Parse(func() (any, error) { fresh = true; return nil, nil })
			if !fresh {
				tc.parsed = append(tc.parsed, sentRef{k, i})
			}
		}
	}
	return tc
}

// both runs the untraced and the traced form of one request, in an
// order that alternates between requests so neither side always runs
// on warmer caches.
func (r *tracedRun) both(untraced, traced func()) {
	if r.t.req%2 == 0 {
		untraced()
		traced()
	} else {
		traced()
		untraced()
	}
}

// account adds one request's traced and untraced durations.
func (r *tracedRun) account(traced, untraced time.Duration, own bool) {
	r.tracedT += traced
	r.untracedT += untraced
	if own {
		r.own = append(r.own, float64(traced)/float64(time.Microsecond))
	}
}

// decodeBody decodes an ingest body the way the daemon does.
func decodeBody(ctx context.Context, body []byte) ([]records.Record, error) {
	var recs []records.Record
	for rec, err := range records.DecodeStream(ctx, bytes.NewReader(body)) {
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// ingest replays one ingest request twice on the same store: untraced
// through the composite ProcessDoc, and traced layer by layer.
func (r *tracedRun) ingest(b *batch, own bool) error {
	tcs, ok := r.probe[b]
	if !ok {
		for _, n := range b.notes {
			tcs = append(tcs, r.touchedBy(n.Text))
		}
		r.probe[b] = tcs
	}
	var (
		exU, exT []core.Extraction
		pU, pT   passes
		dU, dT   time.Duration
		errU     error
		errT     error
	)
	untraced := func() {
		p0, t0 := passesNow(), time.Now()
		recs, err := decodeBody(r.ctx, b.body)
		if err != nil {
			errU = err
			return
		}
		for _, rec := range recs {
			exU = append(exU, r.sys.ProcessDoc(textproc.Analyze(rec.Text)))
		}
		if _, err := core.PersistAll(r.db, exU); err != nil {
			errU = err
			return
		}
		errU = r.db.Sync()
		dU, pU = time.Since(t0), passesNow().since(p0)
	}
	traced := func() {
		p0 := passesNow()
		exT, dT, errT = r.tracedIngest(b, tcs)
		pT = passesNow().since(p0)
	}
	r.both(untraced, traced)
	if err := errors.Join(errU, errT); err != nil {
		return err
	}
	if !reflect.DeepEqual(exU, exT) {
		r.mismatch("traced extraction of %d notes differs from ProcessDoc's", len(b.notes))
	}
	if pU != pT {
		r.mismatch("traced pipeline passes %+v, untraced %+v", pT, pU)
	}
	r.pass.splits += pT.splits
	r.pass.tokenizes += pT.tokenizes
	r.pass.tags += pT.tags
	r.pass.parses += pT.parses
	r.account(dT, dU, own)
	return nil
}

// tracedIngest is one ingest request with a span per layer call:
// decode, then per note analyze → sentences → tag → parse → numeric →
// terms → classify, then persist and fsync.
func (r *tracedRun) tracedIngest(b *batch, tcs []touched) ([]core.Extraction, time.Duration, error) {
	t := r.t
	log0 := r.db.LogSize()
	t.root("request.ingest")
	t.begin("records.decode")
	recs, err := decodeBody(r.ctx, b.body)
	t.end()
	if err != nil {
		t.end()
		return nil, 0, err
	}
	exs := make([]core.Extraction, 0, len(recs))
	for n, rec := range recs {
		tc := tcs[n]
		t.begin("textproc.analyze")
		doc := textproc.Analyze(rec.Text)
		t.end()
		t.begin("textproc.sentences")
		for _, k := range tc.sections {
			doc.Sections[k].Sentences()
		}
		t.end()
		t.begin("pos.tag")
		for _, s := range tc.tagged {
			pos.TagSection(doc.Sections[s.sec], s.i)
		}
		t.end()
		t.begin("linkgram.parse")
		for _, s := range tc.parsed {
			r.parseAttempts++
			if _, err := linkgram.ParseSection(doc.Sections[s.sec], s.i); errors.Is(err, linkgram.ErrNoLinkage) {
				r.noLinkage++
			}
		}
		t.end()
		t.begin("core.numeric")
		ex := core.Extraction{Numeric: r.sys.Numeric.ExtractDoc(doc)}
		t.end()
		t.begin("core.terms")
		r.terms(doc, &ex)
		t.end()
		t.begin("classify.predict")
		if r.sys.Smoking != nil {
			ex.Smoking = r.sys.Smoking.ClassifyDoc(doc)
		}
		t.end()
		exs = append(exs, ex)
	}
	t.begin("core.persist")
	n, err := core.PersistAll(r.db, exs)
	t.end()
	if err != nil {
		t.end()
		return nil, 0, err
	}
	t.begin("store.sync")
	err = r.db.Sync()
	t.end()
	d := t.end()
	r.notes += int64(len(recs))
	r.persistRows += int64(n)
	r.walBytes += r.db.LogSize() - log0
	return exs, d, err
}

// terms is ProcessDoc's patient id and history/medication term step.
func (r *tracedRun) terms(doc *textproc.Document, ex *core.Extraction) {
	if sec, ok := doc.Section("Patient"); ok {
		if id, err := strconv.Atoi(strings.TrimSpace(sec.Body)); err == nil {
			ex.Patient = id
		}
	}
	if sec, ok := doc.Section("Past Medical History"); ok {
		ex.PreMedical, ex.OtherMedical = core.SplitTerms(r.sys.Terms.ExtractSection(sec, ontology.PredefinedMedical))
	}
	if sec, ok := doc.Section("Past Surgical History"); ok {
		ex.PreSurgical, ex.OtherSurgical = core.SplitTerms(r.sys.Terms.ExtractSection(sec, ontology.PredefinedSurgical))
	}
	if sec, ok := doc.Section("Medications"); ok {
		for _, term := range r.sys.Terms.ExtractSection(sec, nil) {
			if term.Concept.Type == ontology.Medication {
				ex.Medications = append(ex.Medications, term.Concept.Preferred)
			}
		}
	}
}

// chart replays one chart read: Warehouse.Patient untraced, and traced
// as the patient-index Lookup followed by the facade's row ordering.
func (r *tracedRun) chart(id int64, own bool) error {
	var (
		want, got []core.AttrRow
		dU, dT    time.Duration
		errU      error
		errT      error
	)
	untraced := func() {
		t0 := time.Now()
		want, errU = r.wh.Patient(id)
		dU = time.Since(t0)
	}
	traced := func() {
		t := r.t
		t.root("request.chart")
		t.begin("store.lookup")
		rows, err := r.tbl.Lookup("patient", store.Int(id))
		t.end()
		t.begin("core.chart")
		got = make([]core.AttrRow, len(rows))
		for i, row := range rows {
			got[i] = core.AttrRow{ID: row[0].I, Patient: row[1].I, Attribute: row[2].S, Value: row[3].S, Numeric: row[4].F}
		}
		slices.SortFunc(got, func(a, b core.AttrRow) int {
			if c := strings.Compare(a.Attribute, b.Attribute); c != 0 {
				return c
			}
			return int(a.ID - b.ID)
		})
		t.end()
		dT, errT = t.end(), err
	}
	r.both(untraced, traced)
	if err := errors.Join(errU, errT); err != nil {
		return err
	}
	if !reflect.DeepEqual(want, got) && !(len(want) == 0 && len(got) == 0) {
		r.mismatch("traced chart of patient %d differs from Warehouse.Patient's", id)
	}
	r.account(dT, dU, own)
	return nil
}

// preds lowers a condition the way the warehouse facade does: the
// attribute equality first, so the planner picks the attribute index.
func (r *tracedRun) preds(c core.Cond) []store.Pred {
	ps := []store.Pred{store.Eq("attribute", store.Str(c.Attr))}
	if c.Term != "" {
		term := lexicon.Normalize(c.Term)
		if concept := r.ont.Lookup(c.Term); concept != nil {
			term = concept.Preferred
		}
		ps = append(ps, store.Eq("value", store.Str(term)))
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
	return ps
}

// query is one traced Table.Query.
func (r *tracedRun) query(c core.Cond) ([]store.Row, error) {
	r.t.begin("store.query")
	rows, qs, err := r.tbl.Query(store.Query{Preds: r.preds(c)})
	r.t.end()
	r.queries++
	r.results += int64(len(rows))
	r.examined += int64(qs.RowsExamined)
	r.probes += int64(qs.IndexProbes)
	r.segments += int64(qs.Segments)
	return rows, err
}

// ask replays one cohort question: the facade call untraced, and traced
// as one Table.Query per condition plus the facade's combining step.
func (r *tracedRun) ask(q question, own bool) error {
	if q.conds == nil {
		return r.prevalence(q.attr, own)
	}
	var (
		want, got []int64
		dU, dT    time.Duration
		errU      error
		errT      error
	)
	untraced := func() {
		t0 := time.Now()
		want, _, errU = r.wh.Ask(q.conds...)
		dU = time.Since(t0)
	}
	traced := func() {
		t := r.t
		t.root("request.cohort")
		var sets [][]store.Row
		for _, c := range q.conds {
			rows, err := r.query(c)
			if err != nil {
				errT = err
			}
			sets = append(sets, rows)
		}
		t.begin("core.intersect")
		got = intersectPatients(sets)
		t.end()
		dT = t.end()
	}
	r.both(untraced, traced)
	if err := errors.Join(errU, errT); err != nil {
		return err
	}
	if !slices.Equal(want, got) {
		r.mismatch("traced %s: %d patients, Warehouse.Ask %d", q.name, len(got), len(want))
	}
	r.account(dT, dU, own)
	return nil
}

// intersectPatients is Ask's combining step: the sorted patients
// present in every condition's rows.
func intersectPatients(sets [][]store.Row) []int64 {
	var matched map[int64]bool
	for _, rows := range sets {
		pats := make(map[int64]bool, len(rows))
		for _, row := range rows {
			pats[row[1].I] = true
		}
		if matched == nil {
			matched = pats
			continue
		}
		for p := range matched {
			if !pats[p] {
				delete(matched, p)
			}
		}
	}
	out := make([]int64, 0, len(matched))
	for p := range matched {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// prevalence replays one prevalence question: Warehouse.Prevalence
// untraced, and traced as its Table.Query plus the histogram step.
func (r *tracedRun) prevalence(attr string, own bool) error {
	var (
		want, got map[string]int
		dU, dT    time.Duration
		errU      error
		errT      error
	)
	untraced := func() {
		t0 := time.Now()
		want, errU = r.wh.Prevalence(attr)
		dU = time.Since(t0)
	}
	traced := func() {
		t := r.t
		t.root("request.cohort")
		rows, err := r.query(core.HasAttr(attr))
		errT = err
		t.begin("core.prevalence")
		seen := map[string]map[int64]bool{}
		for _, row := range rows {
			if seen[row[3].S] == nil {
				seen[row[3].S] = map[int64]bool{}
			}
			seen[row[3].S][row[1].I] = true
		}
		got = make(map[string]int, len(seen))
		for v, pats := range seen {
			got[v] = len(pats)
		}
		t.end()
		dT = t.end()
	}
	r.both(untraced, traced)
	if err := errors.Join(errU, errT); err != nil {
		return err
	}
	if !maps.Equal(want, got) {
		r.mismatch("traced prevalence of %s differs from Warehouse.Prevalence's", attr)
	}
	r.account(dT, dU, own)
	return nil
}

// layerStats sums span self times by name.
type layerStats struct {
	self  map[string]time.Duration
	count map[string]int
	durs  map[string][]float64 // ms, per span
	// requests counts request roots; accounted is the share of their
	// time inside layer spans.
	requests  int
	accounted float64
}

func (t *tracer) layers() layerStats {
	self := t.selfTimes()
	ls := layerStats{self: map[string]time.Duration{}, count: map[string]int{}, durs: map[string][]float64{}}
	var reqTotal, reqSelf int64
	for i, s := range t.spans {
		ls.self[s.Name] += time.Duration(self[i])
		ls.count[s.Name]++
		ls.durs[s.Name] = append(ls.durs[s.Name], float64(s.End-s.Start)/float64(time.Millisecond))
		if s.Parent < 0 && strings.HasPrefix(s.Name, "request.") {
			ls.requests++
			reqTotal += s.End - s.Start
			reqSelf += self[i]
		}
	}
	ls.accounted = ratio(float64(reqTotal-reqSelf), float64(reqTotal))
	return ls
}

// perNote is a layer's self time per traced note, in microseconds.
func (ls layerStats) perNote(name string, notes int64) float64 {
	return ratio(float64(ls.self[name])/float64(time.Microsecond), float64(notes))
}

// perCall is a layer's mean self time per span, in the given unit.
func (ls layerStats) perCall(name string, unit time.Duration) float64 {
	return ratio(float64(ls.self[name])/float64(unit), float64(ls.count[name]))
}
