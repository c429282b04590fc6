package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

var workloadNames = []string{"ingest", "chart", "cohort"}

const (
	ingestPerRequest = 16
	ingestConns      = 2
	chartConns       = 2
	chartHotShare    = 0.6
	// chartWindow is the window chart's figures take their medians
	// over: at thousands of reads a second each one holds enough
	// samples for a p90 of its own.
	chartWindow = time.Second
)

// load is one workload: it drives a running daemon while rec says to
// keep sending, ops sent after rec.warmEnd counting as measured, then
// checks what it saw.
type load interface {
	drive(ctx context.Context, base string, rec *recorder)
	// acked reports the rows and note bytes the daemon acknowledged
	// writing, and the note bytes of requests sent while measuring.
	acked() (rows, noteBytes, measuredNoteBytes int64)
	// verify checks the answers drive collected, counting each wrong
	// one as a failed operation.
	verify(rec *recorder)
	// replay runs the workload's own requests through the traced
	// in-process pipeline until the deadline.
	replay(r *tracedRun, until time.Time) error
}

// recorder collects one phase's samples and failures. Operations of the
// workload's request type sent inside the measured window give the
// latency and throughput; every request counts as attempted.
type recorder struct {
	mu        sync.Mutex
	warmEnd   time.Time
	end       time.Time     // the measured window's planned end
	hardEnd   time.Time     // the latest a short-sampled window may run to
	window    time.Duration // see figures; 0 for the whole measured window
	samples   []sample      // one per measured op that succeeded
	lastDone  time.Time
	respBytes int64
	attempted int64
	failed    int64
	gapMax    time.Duration
	notes     []string
}

// sample is one measured op: when it was sent, counted from the start
// of the measured window, and its latency in ms.
type sample struct {
	at time.Duration
	ms float64
}

// op records one request of the measured type.
func (r *recorder) op(sent time.Time, lat time.Duration, respBytes int, ok bool, why string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failLocked(why)
		return
	}
	if sent.Before(r.warmEnd) {
		return
	}
	r.samples = append(r.samples, sample{at: sent.Sub(r.warmEnd), ms: float64(lat) / float64(time.Millisecond)})
	r.respBytes += int64(respBytes)
	if done := sent.Add(lat); done.After(r.lastDone) {
		r.lastDone = done
	}
}

// wantSamples is the measured-op count that leaves more than minTail
// samples beyond p90.
const wantSamples = 110

// sending reports whether a closed loop should send another request:
// until the planned end, and past it (up to hardEnd) while the window
// holds fewer than wantSamples samples, so a slow host still yields a
// p90.
func (r *recorder) sending(now time.Time) bool {
	if now.Before(r.end) {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return now.Before(r.hardEnd) && len(r.samples) < wantSamples
}

// figures returns the measured ops' throughput and p50 and p90 latency.
// With window 0 they cover the whole measured window. Otherwise each
// consecutive window of that length between warmEnd and end gives its
// own three figures and the median of each is returned, so a few
// seconds in which a shared host runs someone else move them little.
// Each window's p90 needs ten samples beyond it, as a whole-window p90
// does.
func (r *recorder) figures() (opsPerS, p50, p90 float64, err error) {
	groups := [][]float64{nil}
	length := r.lastDone.Sub(r.warmEnd)
	if r.window > 0 {
		groups, length = make([][]float64, r.end.Sub(r.warmEnd)/r.window), r.window
	}
	for _, s := range r.samples {
		i := 0
		if r.window > 0 {
			i = int(s.at / r.window)
		}
		if i < len(groups) {
			groups[i] = append(groups[i], s.ms)
		}
	}
	var rates, p50s, p90s []float64
	for i, lats := range groups {
		a, err50 := percentile(lats, 0.5)
		b, err90 := percentile(lats, 0.9)
		if err := errors.Join(err50, err90); err != nil {
			return 0, 0, 0, fmt.Errorf("window %d of %d: %w", i+1, len(groups), err)
		}
		rates = append(rates, ratio(float64(len(lats)), length.Seconds()))
		p50s, p90s = append(p50s, a), append(p90s, b)
	}
	return median(rates), median(p50s), median(p90s), nil
}

// fail counts a failed correctness check found after the fact.
func (r *recorder) fail(why string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failLocked(why)
}

func (r *recorder) failLocked(why string) {
	r.failed++
	if len(r.notes) < 10 {
		r.notes = append(r.notes, why)
	}
}

// gap records how long a closed loop took to send its next request
// after the previous answer came back: the driver's own stall.
func (r *recorder) gap(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gapMax = max(r.gapMax, d)
}

// client is a fixed set of keep-alive connections to the daemon.
type client struct{ hc *http.Client }

func newClient(conns int) *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: time.Minute,
	}}
}

func (c *client) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// statusErr explains a non-success answer.
func statusErr(what string, status int, body []byte, err error) string {
	if err != nil {
		return fmt.Sprintf("%s: %v", what, err)
	}
	return fmt.Sprintf("%s: HTTP %d %.200s", what, status, body)
}

// ---- ingest ----------------------------------------------------------

// ingestLoad posts full consultation notes, 16 per request, in a closed
// loop on two connections. The NLP front half does most of the
// daemon's work; WAL append, group commit and background compaction
// run beside it.
type ingestLoad struct {
	batches   []batch
	rows      atomic.Int64
	noteBytes atomic.Int64
	measBytes atomic.Int64
	nextBatch atomic.Int64
}

func newIngestLoad(in *inputs) (*ingestLoad, error) {
	b, err := in.ingestBatches(in.sz.IngestPool)
	if err != nil {
		return nil, err
	}
	return &ingestLoad{batches: b}, nil
}

func (w *ingestLoad) drive(ctx context.Context, base string, rec *recorder) {
	cl := newClient(ingestConns)
	defer cl.close()
	var wg sync.WaitGroup
	for c := 0; c < ingestConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := time.Now()
			for ctx.Err() == nil {
				sent := time.Now()
				if !rec.sending(sent) {
					return
				}
				rec.gap(sent.Sub(prev))
				b := &w.batches[int(w.nextBatch.Add(1)-1)%len(w.batches)]
				status, body, err := cl.do(ctx, http.MethodPost, base+"/v1/ingest", b.body)
				lat := time.Since(sent)
				prev = time.Now()
				if err != nil || status != http.StatusAccepted {
					rec.op(sent, lat, len(body), false, statusErr("ingest", status, body, err))
					continue
				}
				var ack struct {
					Rows int `json:"rows"`
				}
				if err := json.Unmarshal(body, &ack); err != nil || ack.Rows != b.rows {
					rec.op(sent, lat, len(body), false, fmt.Sprintf("ingest: acked %d rows, the pipeline extracts %d (%v)", ack.Rows, b.rows, err))
					continue
				}
				w.rows.Add(int64(b.rows))
				w.noteBytes.Add(b.noteBytes)
				if !sent.Before(rec.warmEnd) {
					w.measBytes.Add(b.noteBytes)
				}
				rec.op(sent, lat, len(body), true, "")
			}
		}()
	}
	wg.Wait()
}

func (w *ingestLoad) acked() (int64, int64, int64) {
	return w.rows.Load(), w.noteBytes.Load(), w.measBytes.Load()
}

// verify has nothing left to check: each 202 was checked as it came
// back, and the drain check counts the acknowledged rows.
func (w *ingestLoad) verify(*recorder) {}

func (w *ingestLoad) replay(r *tracedRun, until time.Time) error {
	for i := 0; time.Now().Before(until); i++ {
		if err := r.ingest(&w.batches[i%len(w.batches)], true); err != nil {
			return err
		}
	}
	return nil
}

// ---- chart -----------------------------------------------------------

// chartLoad reads single patients' charts in a closed loop on two
// connections, 60% from the newest 5% of patients and 40% uniform. The
// hot reads and about half of the uniform ones find their blocks
// cached, so p50 times the hit path and p90 falls well inside the
// reads that miss. No write runs beside it, so every chart must equal
// the patient's preloaded rows. The measured figures are medians over
// one-second windows.
type chartLoad struct {
	in *inputs
	// bodies holds the distinct answers seen per patient. A chart
	// that repeats a stored answer byte for byte needs no second
	// check, so verify decodes each distinct answer once.
	bodies map[int][][]byte
}

func newChartLoad(in *inputs) *chartLoad {
	return &chartLoad{in: in, bodies: map[int][][]byte{}}
}

// chartPicker draws patient ids: chartHotShare from the hot set, the
// rest uniform over all patients.
func chartPicker(in *inputs, seed int64) func() int {
	rng := rand.New(rand.NewSource(seed))
	first, last := in.hotPatients()
	return func() int {
		if rng.Float64() < chartHotShare {
			return first + rng.Intn(last-first+1)
		}
		return 1 + rng.Intn(in.sz.Patients)
	}
}

func (w *chartLoad) drive(ctx context.Context, base string, rec *recorder) {
	cl := newClient(chartConns)
	defer cl.close()
	var mu sync.Mutex // guards pick and w.bodies
	pick := chartPicker(w.in, subSeed(w.in.seed, famRequests))
	var wg sync.WaitGroup
	for c := 0; c < chartConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := time.Now()
			for ctx.Err() == nil {
				sent := time.Now()
				if !rec.sending(sent) {
					return
				}
				rec.gap(sent.Sub(prev))
				mu.Lock()
				id := pick()
				mu.Unlock()
				status, body, err := cl.do(ctx, http.MethodGet, base+"/v1/patient/"+strconv.Itoa(id), nil)
				prev = time.Now()
				ok := err == nil && status == http.StatusOK
				rec.op(sent, prev.Sub(sent), len(body), ok, statusErr("chart", status, body, err))
				if !ok {
					continue
				}
				mu.Lock()
				if !slices.ContainsFunc(w.bodies[id], func(b []byte) bool { return bytes.Equal(b, body) }) {
					w.bodies[id] = append(w.bodies[id], body)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func (w *chartLoad) acked() (int64, int64, int64) { return 0, 0, 0 }

// verify checks every distinct chart: it holds exactly the patient's
// preloaded rows.
func (w *chartLoad) verify(rec *recorder) {
	for id, bodies := range w.bodies {
		want := map[rowKey]int{}
		for _, r := range w.in.patientRows(id) {
			want[r]++
		}
		for _, body := range bodies {
			var chart struct {
				Patient int `json:"patient"`
				Rows    []struct {
					Patient   int     `json:"patient"`
					Attribute string  `json:"attribute"`
					Value     string  `json:"value"`
					Numeric   float64 `json:"numeric"`
				} `json:"rows"`
			}
			if err := json.Unmarshal(body, &chart); err != nil || chart.Patient != id {
				rec.fail(fmt.Sprintf("chart %d: undecodable answer (%v)", id, err))
				continue
			}
			got := map[rowKey]int{}
			bad := false
			for _, r := range chart.Rows {
				got[rowKey{Attr: r.Attribute, Value: r.Value, Num: r.Numeric}]++
				bad = bad || r.Patient != id
			}
			if bad || !maps.Equal(got, want) {
				rec.fail(fmt.Sprintf("chart %d: %d rows, want the %d preloaded ones", id, len(chart.Rows), len(w.in.patientRows(id))))
			}
		}
	}
}

// replay reads charts from the same skewed picker.
func (w *chartLoad) replay(r *tracedRun, until time.Time) error {
	pick := chartPicker(w.in, subSeed(w.in.seed, famRequests))
	for time.Now().Before(until) {
		if err := r.chart(int64(pick()), true); err != nil {
			return err
		}
	}
	return nil
}

// ---- cohort ----------------------------------------------------------

// question is one of the paper's population questions, as sent over
// HTTP and as the facade call the traced run compares against.
type question struct {
	name   string
	method string
	path   string
	body   []byte
	conds  []core.Cond // nil for the prevalence question
	attr   string      // prevalence attribute
}

var cohortQuestions = []question{
	{
		name: "pulse>100", method: http.MethodPost, path: "/v1/ask",
		body:  []byte(`{"conds":[{"attr":"pulse","min":100,"minExclusive":true}]}`),
		conds: []core.Cond{core.NumAbove("pulse", 100)},
	},
	{
		name: "smoking=current", method: http.MethodGet, path: "/v1/query?attr=smoking&value=current",
		conds: []core.Cond{core.HasTerm("smoking", "current")},
	},
	{
		name: "pulse>100 and smoking=current", method: http.MethodPost, path: "/v1/ask",
		body:  []byte(`{"conds":[{"attr":"pulse","min":100,"minExclusive":true},{"attr":"smoking","term":"current"}]}`),
		conds: []core.Cond{core.NumAbove("pulse", 100), core.HasTerm("smoking", "current")},
	},
	{
		name: "prevalence of smoking", method: http.MethodGet, path: "/v1/prevalence?attr=smoking",
		attr: "smoking",
	},
}

// cohortLoad asks the population questions in a fixed rotation, closed
// loop on one connection. Each walks an attribute's whole posting list
// over a table twice the block cache, so it runs on the cache-miss path.
type cohortLoad struct {
	in         *inputs
	answers    [][]int64      // expected patient sets, by question
	prevalence map[string]int // expected smoking histogram
	mu         sync.Mutex
	seen       []cohortAnswer
}

type cohortAnswer struct {
	q    int
	body []byte
}

func newCohortLoad(in *inputs) *cohortLoad {
	w := &cohortLoad{in: in, prevalence: map[string]int{}}
	var pulse, current []int64
	for p := 1; p <= in.sz.Patients; p++ {
		hot, cur := false, false
		vals := map[string]bool{}
		for _, r := range in.patientRows(p) {
			switch r.Attr {
			case "pulse":
				hot = hot || r.Num > 100
			case "smoking":
				cur = cur || r.Value == "current"
				vals[r.Value] = true
			}
		}
		for v := range vals {
			w.prevalence[v]++
		}
		if hot {
			pulse = append(pulse, int64(p))
		}
		if cur {
			current = append(current, int64(p))
		}
	}
	var both []int64
	for _, p := range pulse {
		if _, ok := slices.BinarySearch(current, p); ok {
			both = append(both, p)
		}
	}
	w.answers = [][]int64{pulse, current, both, nil}
	return w
}

func (w *cohortLoad) drive(ctx context.Context, base string, rec *recorder) {
	cl := newClient(1)
	defer cl.close()
	prev := time.Now()
	for i := 0; ctx.Err() == nil; i++ {
		sent := time.Now()
		if !rec.sending(sent) {
			return
		}
		rec.gap(sent.Sub(prev))
		q := i % len(cohortQuestions)
		cq := cohortQuestions[q]
		status, body, err := cl.do(ctx, cq.method, base+cq.path, cq.body)
		lat := time.Since(sent)
		prev = time.Now()
		ok := err == nil && status == http.StatusOK
		rec.op(sent, lat, len(body), ok, statusErr(cq.name, status, body, err))
		if ok {
			w.mu.Lock()
			w.seen = append(w.seen, cohortAnswer{q: q, body: body})
			w.mu.Unlock()
		}
	}
}

func (w *cohortLoad) acked() (int64, int64, int64) { return 0, 0, 0 }

// verify compares every answer with the one computed from the
// preload's known extractions.
func (w *cohortLoad) verify(rec *recorder) {
	for _, a := range w.seen {
		cq := cohortQuestions[a.q]
		if cq.conds == nil {
			var got struct {
				Prevalence map[string]int `json:"prevalence"`
			}
			if err := json.Unmarshal(a.body, &got); err != nil || !maps.Equal(got.Prevalence, w.prevalence) {
				rec.fail(fmt.Sprintf("%s: got %v, want %v", cq.name, got.Prevalence, w.prevalence))
			}
			continue
		}
		var got struct {
			Patients []int64 `json:"patients"`
		}
		if err := json.Unmarshal(a.body, &got); err != nil || !slices.Equal(got.Patients, w.answers[a.q]) {
			rec.fail(fmt.Sprintf("%s: %d patients, want %d", cq.name, len(got.Patients), len(w.answers[a.q])))
		}
	}
}

func (w *cohortLoad) replay(r *tracedRun, until time.Time) error {
	for i := 0; time.Now().Before(until); i++ {
		if err := r.ask(cohortQuestions[i%len(cohortQuestions)], true); err != nil {
			return err
		}
	}
	return nil
}
