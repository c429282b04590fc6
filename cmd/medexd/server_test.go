package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// testConfig is a daemon config sized for tests: small queue, small
// body/batch caps, short timeouts.
func testConfig() config {
	return config{
		Addr:          "127.0.0.1:0",
		Shards:        2,
		Strategy:      core.LinkGrammar,
		QueueDepth:    8,
		MaxGroup:      4,
		MaxBody:       1 << 20,
		MaxBatch:      64,
		IngestTimeout: 10 * time.Second,
		QueryTimeout:  10 * time.Second,
		DrainTimeout:  10 * time.Second,
	}
}

// newTestServer builds a server over the given engine — a *store.DB or
// a test wrapper around one — plus an httptest.Server in front of its
// routes. Cleanup drains the ingester and closes both.
func newTestServer(t *testing.T, cfg config, db interface {
	engine
	Close() error
}) (*server, *httptest.Server) {
	t.Helper()
	sys, err := core.NewSystem(core.Config{Strategy: cfg.Strategy, ResolveSynonyms: true})
	if err != nil {
		t.Fatal(err)
	}
	wh, err := core.OpenWarehouse(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(cfg, db, sys, wh)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(func() {
		ts.Close()
		srv.ing.Close()
		db.Close()
	})
	return srv, ts
}

// ndjsonPatients builds an NDJSON ingest body with one record per
// patient id. Every record carries a pulse so each one persists at
// least one attribute row.
func ndjsonPatients(ids ...int64) string {
	var b strings.Builder
	for _, id := range ids {
		rec := struct {
			ID   int64  `json:"id"`
			Text string `json:"text"`
		}{id, fmt.Sprintf("Patient:  %d\nVitals:  Pulse is %d.\n", id, 60+id%80)}
		j, _ := json.Marshal(rec)
		b.Write(j)
		b.WriteByte('\n')
	}
	return b.String()
}

func postIngest(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/ingest", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("response is not JSON: %v", err)
	}
	return resp, decoded
}

func getJSON(t *testing.T, url string, want int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d, want %d (body %s)", url, resp.StatusCode, want, body)
	}
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("response is not JSON: %v", err)
	}
	return decoded
}

func TestIngestAndQueryRoundTrip(t *testing.T) {
	db, err := store.OpenSharded(filepath.Join(t.TempDir(), "wh.db"), 2)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, testConfig(), db)

	resp, body := postIngest(t, ts.URL, ndjsonPatients(1, 2, 3))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest = %d (%v), want 202", resp.StatusCode, body)
	}
	if body["records"].(float64) != 3 || body["rows"].(float64) < 3 {
		t.Fatalf("ingest response %v, want records=3 rows>=3", body)
	}
	if body["durable"] != true {
		t.Fatalf("ingest response %v, want durable=true", body)
	}

	// Numeric range: patients 41..43 have pulse 101..103.
	if resp, body = postIngest(t, ts.URL, ndjsonPatients(41, 42, 43)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second ingest = %d (%v)", resp.StatusCode, body)
	}
	q := getJSON(t, ts.URL+"/v1/query?attr=pulse&min=100", http.StatusOK)
	if got := len(q["patients"].([]any)); got != 3 {
		t.Fatalf("query min=100 matched %d patients (%v), want 3", got, q)
	}
	stats := q["stats"].(map[string]any)
	if stats["indexedConds"].(float64) != 1 {
		t.Fatalf("query did not use the index: %v", stats)
	}
	if _, degraded := stats["health"]; degraded {
		t.Fatalf("healthy engine reported degraded stats: %v", stats)
	}

	rows := getJSON(t, ts.URL+"/v1/query?attr=pulse&rows=true", http.StatusOK)
	if got := len(rows["rows"].([]any)); got != 6 {
		t.Fatalf("rows query returned %d rows, want 6", got)
	}

	chart := getJSON(t, ts.URL+"/v1/patient/42", http.StatusOK)
	if got := len(chart["rows"].([]any)); got < 1 {
		t.Fatalf("patient chart empty: %v", chart)
	}

	prev := getJSON(t, ts.URL+"/v1/prevalence?attr=pulse", http.StatusOK)
	if len(prev["prevalence"].(map[string]any)) == 0 {
		t.Fatalf("empty prevalence: %v", prev)
	}

	askBody := `{"conds":[{"attr":"pulse","min":100},{"attr":"pulse","max":103}]}`
	askResp, err := http.Post(ts.URL+"/v1/ask", "application/json", strings.NewReader(askBody))
	if err != nil {
		t.Fatal(err)
	}
	defer askResp.Body.Close()
	var ask map[string]any
	if err := json.NewDecoder(askResp.Body).Decode(&ask); err != nil {
		t.Fatal(err)
	}
	if got := len(ask["patients"].([]any)); got != 3 {
		t.Fatalf("ask matched %d patients (%v), want 3", got, ask)
	}

	st := getJSON(t, ts.URL+"/v1/stats", http.StatusOK)
	if st["table"].(map[string]any)["rows"].(float64) != 6 {
		t.Fatalf("stats table rows %v, want 6", st["table"])
	}
	if st["ingest"].(map[string]any)["batches"].(float64) != 2 {
		t.Fatalf("stats ingest batches %v, want 2", st["ingest"])
	}

	getJSON(t, ts.URL+"/healthz", http.StatusOK)
	ready := getJSON(t, ts.URL+"/readyz", http.StatusOK)
	if ready["mode"] != "read-write" {
		t.Fatalf("readyz mode %v, want read-write", ready)
	}
}

func TestIngestRejectsBadInput(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatch = 2
	cfg.MaxBody = 256
	_, ts := newTestServer(t, cfg, store.OpenMemorySharded(2))

	cases := []struct {
		name, body string
		status     int
		substr     string
	}{
		{"malformed json", "not json\n", http.StatusBadRequest, "decoding records"},
		{"empty body", "", http.StatusBadRequest, "no records"},
		{"empty record text", `{"id":1,"text":""}` + "\n", http.StatusBadRequest, "empty text"},
		{"too many records", ndjsonPatients(1, 2, 3), http.StatusRequestEntityTooLarge, "max-batch"},
		{
			"body too large",
			`{"id":1,"text":"Patient:  1\n` + strings.Repeat("padding ", 64) + `"}` + "\n",
			http.StatusRequestEntityTooLarge, "max-body",
		},
	}
	for _, tc := range cases {
		resp, body := postIngest(t, ts.URL, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d (%v), want %d", tc.name, resp.StatusCode, body, tc.status)
			continue
		}
		if !strings.Contains(body["error"].(string), tc.substr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, body["error"], tc.substr)
		}
	}
}

// gatedEngine parks the writer goroutine inside Sync so tests can hold
// the ingest queue full deterministically. The first Sync announces
// itself on entered, then blocks until gate closes.
type gatedEngine struct {
	*store.DB
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedEngine) Sync() error {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
	return g.DB.Sync()
}

// TestIngestBackpressure429 proves the overload contract: with the
// writer parked and the bounded queue full, the next ingest answers 429
// with Retry-After instead of buffering, and the parked batches are
// still acknowledged durably once the writer resumes.
func TestIngestBackpressure429(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 1
	cfg.MaxGroup = 1
	eng := &gatedEngine{
		DB:      store.OpenMemorySharded(2),
		entered: make(chan struct{}, 1),
		gate:    make(chan struct{}),
	}
	srv, ts := newTestServer(t, cfg, eng)

	type result struct {
		status int
		err    error
	}
	results := make(chan result, 2)
	post := func(id int64) {
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson",
			strings.NewReader(ndjsonPatients(id)))
		if err != nil {
			results <- result{0, err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		results <- result{resp.StatusCode, nil}
	}

	// Batch 1: the writer picks it up and parks in Sync.
	go post(1)
	select {
	case <-eng.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("writer never reached Sync")
	}
	// Batch 2: fills the depth-1 queue.
	go post(2)
	deadline := time.Now().Add(5 * time.Second)
	for srv.ing.Stats().Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %+v", srv.ing.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	// Batch 3: queue full — must be rejected, not buffered.
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson",
		strings.NewReader(ndjsonPatients(3)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload ingest = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if srv.ing.Stats().Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", srv.ing.Stats().Rejected)
	}

	// Release the writer: both held batches must be acknowledged.
	close(eng.gate)
	for range 2 {
		r := <-results
		if r.err != nil || r.status != http.StatusAccepted {
			t.Fatalf("held batch finished %d / %v, want 202", r.status, r.err)
		}
	}
}

// healthEngine overrides Health to simulate a failed-compaction latch
// without reaching into store internals.
type healthEngine struct {
	*store.DB
	h store.Health
}

func (e *healthEngine) Health() store.Health { return e.h }

// TestDegradedReadOnlyMode: a read-only engine refuses ingest with 503,
// stays ready for reads (with the mode reported), and stamps the health
// caveat into query stats.
func TestDegradedReadOnlyMode(t *testing.T) {
	eng := &healthEngine{
		DB: store.OpenMemorySharded(2),
		h: store.Health{
			ReadOnly:     true,
			FailedShards: []int{1},
			Reason:       "store: compaction swap failed",
		},
	}
	_, ts := newTestServer(t, testConfig(), eng)

	resp, body := postIngest(t, ts.URL, ndjsonPatients(1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest on read-only engine = %d (%v), want 503", resp.StatusCode, body)
	}
	if !strings.Contains(body["error"].(string), "read-only") {
		t.Fatalf("503 error %q does not say read-only", body["error"])
	}

	ready := getJSON(t, ts.URL+"/readyz", http.StatusOK)
	if ready["mode"] != "read-only" {
		t.Fatalf("readyz mode %v, want read-only", ready)
	}

	q := getJSON(t, ts.URL+"/v1/query?attr=pulse", http.StatusOK)
	health, _ := q["stats"].(map[string]any)["health"].(string)
	if !strings.Contains(health, "read-only") {
		t.Fatalf("query stats do not carry the degraded health: %v", q)
	}

	st := getJSON(t, ts.URL+"/v1/stats", http.StatusOK)
	if st["health"].(map[string]any)["readOnly"] != true {
		t.Fatalf("stats health %v, want readOnly=true", st["health"])
	}
}

// TestDrainingRejectsNewWork: once the drain begins, ingest and
// readiness turn away traffic while liveness stays up.
func TestDrainingRejectsNewWork(t *testing.T) {
	srv, ts := newTestServer(t, testConfig(), store.OpenMemorySharded(2))
	srv.beginDrain()

	resp, body := postIngest(t, ts.URL, ndjsonPatients(1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest while draining = %d (%v), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 without Retry-After header")
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK)
	r, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", r.StatusCode)
	}
}

// TestStalledClientCutOff: a client that opens an ingest request and
// then stops sending is disconnected by the server's read timeout
// instead of holding a connection (and extraction context) forever.
func TestStalledClientCutOff(t *testing.T) {
	cfg := testConfig()
	sys, err := core.NewSystem(core.Config{Strategy: cfg.Strategy})
	if err != nil {
		t.Fatal(err)
	}
	db := store.OpenMemorySharded(2)
	wh, err := core.OpenWarehouse(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(cfg, db, sys, wh)
	ts := httptest.NewUnstartedServer(srv.routes())
	ts.Config.ReadTimeout = 300 * time.Millisecond
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		srv.ing.Close()
		db.Close()
	})

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Claim a large body, send a fragment, then stall.
	fmt.Fprintf(conn, "POST /v1/ingest HTTP/1.1\r\nHost: test\r\nContent-Length: 100000\r\n\r\n")
	fmt.Fprintf(conn, `{"id":1,`)

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1024)
	start := time.Now()
	for {
		if _, err := conn.Read(buf); err != nil {
			break // server cut us off
		}
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("stalled connection survived %s; read timeout did not fire", waited)
	}
}
