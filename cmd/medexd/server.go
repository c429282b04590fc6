package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/records"
	"repro/internal/store"
)

// engine is the part of *store.DB the daemon uses: the ingester's
// write path plus what the handlers read. Tests wrap a *store.DB to fake
// Health or gate Sync.
type engine interface {
	core.Storage
	Table(name string) (*store.Table, error)
	Health() store.Health
	CompactionStats() store.CompactionStats
	Shards() int
	LogSize() int64
}

// server owns the daemon's runtime state: the engine, the extraction
// system, the warehouse facade over it, and the single-writer ingester
// that serializes all writes. Handlers never touch the engine's write
// path directly — every mutation goes through the ingester, so row ids
// never collide and acknowledgment implies durability.
type server struct {
	cfg config
	db  engine
	sys *core.System
	wh  *core.Warehouse
	ing *core.Ingester

	draining atomic.Bool
	batches  atomic.Int64 // acknowledged ingest batches, for response ids
	started  time.Time
}

func newServer(cfg config, db engine, sys *core.System, wh *core.Warehouse) *server {
	return &server{
		cfg: cfg,
		db:  db,
		sys: sys,
		wh:  wh,
		ing: core.NewIngester(db, core.IngestConfig{
			QueueDepth: cfg.QueueDepth,
			MaxGroup:   cfg.MaxGroup,
			NoSync:     cfg.NoSync,
		}),
		started: time.Now(),
	}
}

// beginDrain flips the server read-only for new work: ingest and
// readiness report 503 while the HTTP server shuts down and the
// ingester drains its queue.
func (s *server) beginDrain() { s.draining.Store(true) }

// routes builds the handler tree. Read endpoints share one timeout
// handler so a slow scan cannot hold a connection forever; ingest
// manages its own deadline because it owns a request-scoped context
// that must also cover the persistence wait.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)

	read := http.NewServeMux()
	read.HandleFunc("GET /v1/query", s.handleQuery)
	read.HandleFunc("POST /v1/ask", s.handleAsk)
	read.HandleFunc("GET /v1/patient/{id}", s.handlePatient)
	read.HandleFunc("GET /v1/prevalence", s.handlePrevalence)
	read.HandleFunc("GET /v1/stats", s.handleStats)
	timeoutBody := `{"error":"request timed out"}`
	mux.Handle("GET /v1/", http.TimeoutHandler(read, s.cfg.QueryTimeout, timeoutBody))
	mux.Handle("POST /v1/ask", http.TimeoutHandler(read, s.cfg.QueryTimeout, timeoutBody))

	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *server) errorf(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

type ingestResponse struct {
	Batch   int64 `json:"batch"`
	Records int   `json:"records"`
	Rows    int   `json:"rows"`
	Durable bool  `json:"durable"`
}

// handleIngest is the write path: decode an NDJSON stream of records,
// extract them through the parallel pipeline, and submit the batch to
// the single-writer ingester. The 202 acknowledgment is sent only after
// the batch's rows — and the fsync covering them — have succeeded, so
// an acked batch survives a crash. Overload never buffers: a full queue
// answers 429 with Retry-After, a body over -max-body answers 413, and
// a stalled client is cut off by the server's read timeout.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		s.errorf(w, http.StatusServiceUnavailable, "draining: server is shutting down")
		return
	}
	if h := s.db.Health(); h.ReadOnly {
		s.errorf(w, http.StatusServiceUnavailable, "engine is read-only: %s (reopen the database to recover)", h.Reason)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.IngestTimeout)
	defer cancel()
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)

	var decErr error
	nrec, tooMany := 0, false
	seq := func(yield func(records.Record) bool) {
		for rec, err := range records.DecodeStream(ctx, body) {
			if err != nil {
				decErr = err
				return
			}
			if nrec++; nrec > s.cfg.MaxBatch {
				tooMany = true
				return
			}
			if !yield(rec) {
				return
			}
		}
	}
	exs := make([]core.Extraction, 0, 64)
	for _, ex := range s.sys.ProcessStream(ctx, seq, s.cfg.Workers) {
		exs = append(exs, ex)
	}

	switch {
	case tooMany:
		s.errorf(w, http.StatusRequestEntityTooLarge, "batch exceeds -max-batch=%d records", s.cfg.MaxBatch)
		return
	case decErr != nil:
		var tooLarge *http.MaxBytesError
		if errors.As(decErr, &tooLarge) {
			s.errorf(w, http.StatusRequestEntityTooLarge, "body exceeds -max-body=%d bytes", s.cfg.MaxBody)
			return
		}
		if ctx.Err() != nil {
			s.errorf(w, http.StatusRequestTimeout, "reading request: %v", ctx.Err())
			return
		}
		s.errorf(w, http.StatusBadRequest, "decoding records: %v", decErr)
		return
	case ctx.Err() != nil:
		// Extraction was cut short; submitting a partial batch would
		// silently drop the tail, so refuse the whole request.
		s.errorf(w, http.StatusRequestTimeout, "extraction timed out: %v", ctx.Err())
		return
	case len(exs) == 0:
		s.errorf(w, http.StatusBadRequest, "no records in request body")
		return
	}

	rows, err := s.ing.Submit(ctx, exs)
	switch {
	case errors.Is(err, core.ErrBackpressure):
		w.Header().Set("Retry-After", "1")
		s.errorf(w, http.StatusTooManyRequests, "ingest queue full (%d batches); retry with backoff", s.cfg.QueueDepth)
		return
	case errors.Is(err, core.ErrIngesterClosed):
		w.Header().Set("Retry-After", "1")
		s.errorf(w, http.StatusServiceUnavailable, "draining: server is shutting down")
		return
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// The batch is queued but unacknowledged: it may persist, but
		// the client must treat it as lost and retry.
		s.errorf(w, http.StatusServiceUnavailable, "timed out waiting for durability; batch not acknowledged")
		return
	case err != nil:
		if h := s.db.Health(); h.ReadOnly {
			s.errorf(w, http.StatusServiceUnavailable, "engine is read-only: %s (reopen the database to recover)", h.Reason)
			return
		}
		s.errorf(w, http.StatusInternalServerError, "persisting batch: %v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, ingestResponse{
		Batch:   s.batches.Add(1),
		Records: len(exs),
		Rows:    rows,
		Durable: !s.cfg.NoSync,
	})
}

type condJSON struct {
	Attr         string   `json:"attr"`
	Term         string   `json:"term,omitempty"`
	Min          *float64 `json:"min,omitempty"`
	Max          *float64 `json:"max,omitempty"`
	MinExclusive bool     `json:"minExclusive,omitempty"`
	MaxExclusive bool     `json:"maxExclusive,omitempty"`
}

func (c condJSON) cond() core.Cond {
	return core.Cond{
		Attr: c.Attr, Term: c.Term,
		Min: c.Min, Max: c.Max,
		MinExcl: c.MinExclusive, MaxExcl: c.MaxExclusive,
	}
}

type queryStatsJSON struct {
	Conds        int    `json:"conds"`
	IndexedConds int    `json:"indexedConds"`
	IndexProbes  int    `json:"indexProbes"`
	RowsExamined int    `json:"rowsExamined"`
	FullScans    int    `json:"fullScans"`
	Shards       int    `json:"shards"`
	BloomSkips   int    `json:"bloomSkips"`
	CacheHits    int    `json:"cacheHits"`
	CacheMisses  int    `json:"cacheMisses"`
	Health       string `json:"health,omitempty"` // set when the engine is degraded
}

func (s *server) statsJSON(qs core.QueryStats) queryStatsJSON {
	out := queryStatsJSON{
		Conds:        qs.Conds,
		IndexedConds: qs.IndexedConds,
		IndexProbes:  qs.IndexProbes,
		RowsExamined: qs.RowsExamined,
		FullScans:    qs.FullScans,
		Shards:       qs.Shards,
		BloomSkips:   qs.BloomSkips,
		CacheHits:    qs.CacheHits,
		CacheMisses:  qs.CacheMisses,
	}
	if h := s.db.Health(); !h.Ok() {
		out.Health = h.String()
	}
	return out
}

type rowJSON struct {
	Patient   int64   `json:"patient"`
	Attribute string  `json:"attribute"`
	Value     string  `json:"value,omitempty"`
	Numeric   float64 `json:"numeric,omitempty"`
}

// handleQuery answers a single-condition question from URL parameters:
// attr (required), value (equality on the concept term), min/max
// (inclusive numeric bounds). rows=true returns matching attribute rows
// instead of patient ids.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	attr := q.Get("attr")
	if attr == "" {
		s.errorf(w, http.StatusBadRequest, "query: attr parameter is required")
		return
	}
	cond := core.Cond{Attr: attr, Term: q.Get("value")}
	for _, bound := range []struct {
		param string
		dst   **float64
	}{{"min", &cond.Min}, {"max", &cond.Max}} {
		if v := q.Get(bound.param); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				s.errorf(w, http.StatusBadRequest, "query: %s=%q is not a number", bound.param, v)
				return
			}
			*bound.dst = &f
		}
	}

	if q.Get("rows") == "true" {
		matched, qs, err := s.wh.Rows(cond)
		if err != nil {
			s.errorf(w, http.StatusBadRequest, "query: %v", err)
			return
		}
		rows := make([]rowJSON, len(matched))
		for i, m := range matched {
			rows[i] = rowJSON{Patient: m.Patient, Attribute: m.Attribute, Value: m.Value, Numeric: m.Numeric}
		}
		writeJSON(w, http.StatusOK, map[string]any{"rows": rows, "stats": s.statsJSON(qs)})
		return
	}
	patients, qs, err := s.wh.Ask(cond)
	if err != nil {
		s.errorf(w, http.StatusBadRequest, "query: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"patients": patients, "stats": s.statsJSON(qs)})
}

// handleAsk answers a multi-condition question: the patients satisfying
// every condition in the posted JSON body.
func (s *server) handleAsk(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Conds []condJSON `json:"conds"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.errorf(w, http.StatusBadRequest, "ask: decoding request: %v", err)
		return
	}
	if len(req.Conds) == 0 {
		s.errorf(w, http.StatusBadRequest, "ask: at least one condition is required")
		return
	}
	conds := make([]core.Cond, len(req.Conds))
	for i, c := range req.Conds {
		conds[i] = c.cond()
	}
	patients, qs, err := s.wh.Ask(conds...)
	if err != nil {
		s.errorf(w, http.StatusBadRequest, "ask: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"patients": patients, "stats": s.statsJSON(qs)})
}

// handlePatient returns every attribute row of one patient's chart.
func (s *server) handlePatient(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		s.errorf(w, http.StatusBadRequest, "patient: id %q is not an integer", r.PathValue("id"))
		return
	}
	chart, err := s.wh.Patient(id)
	if err != nil {
		s.errorf(w, http.StatusInternalServerError, "patient: %v", err)
		return
	}
	rows := make([]rowJSON, len(chart))
	for i, m := range chart {
		rows[i] = rowJSON{Patient: m.Patient, Attribute: m.Attribute, Value: m.Value, Numeric: m.Numeric}
	}
	writeJSON(w, http.StatusOK, map[string]any{"patient": id, "rows": rows})
}

// handlePrevalence returns the value histogram of one attribute.
func (s *server) handlePrevalence(w http.ResponseWriter, r *http.Request) {
	attr := r.URL.Query().Get("attr")
	if attr == "" {
		s.errorf(w, http.StatusBadRequest, "prevalence: attr parameter is required")
		return
	}
	hist, err := s.wh.Prevalence(attr)
	if err != nil {
		s.errorf(w, http.StatusInternalServerError, "prevalence: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"attr": attr, "prevalence": hist})
}

type healthJSON struct {
	Status            string `json:"status"` // "ok" or the degradation summary
	ReadOnly          bool   `json:"readOnly"`
	FailedShards      []int  `json:"failedShards,omitempty"`
	RecoveredWithLoss bool   `json:"recoveredWithLoss"`
	DroppedRecords    int    `json:"droppedRecords,omitempty"`
}

func healthFrom(h store.Health) healthJSON {
	return healthJSON{
		Status:            h.String(),
		ReadOnly:          h.ReadOnly,
		FailedShards:      h.FailedShards,
		RecoveredWithLoss: h.RecoveredWithLoss,
		DroppedRecords:    h.DroppedRecords,
	}
}

// handleStats is the monitoring endpoint: engine health, table,
// ingest and background-compaction counters, log size.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	tbl, err := s.db.Table(core.ResultTable)
	var tstats store.Stats
	if err == nil {
		tstats = tbl.Stats()
	}
	ist := s.ing.Stats()
	cst := s.db.CompactionStats()
	classifier := map[string]any{"backend": s.cfg.Backend, "trained": false}
	if s.sys.Smoking != nil {
		classifier["backend"] = s.sys.Smoking.Backend()
		classifier["trained"] = true
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime":     time.Since(s.started).Round(time.Millisecond).String(),
		"draining":   s.draining.Load(),
		"classifier": classifier,
		"health":     healthFrom(s.db.Health()),
		"shards":     s.db.Shards(),
		"logBytes":   s.db.LogSize(),
		"table": map[string]any{
			"rows":         tstats.Rows,
			"segments":     tstats.Segments,
			"failedShards": tstats.FailedShards,
			"indexes":      tstats.IndexNames,
		},
		"ingest": map[string]any{
			"batches":   ist.Batches,
			"rows":      ist.Rows,
			"groups":    ist.Groups,
			"rejected":  ist.Rejected,
			"queued":    ist.Queued,
			"peakQueue": ist.PeakQueue,
		},
		"compaction": map[string]any{
			"minorRuns":      cst.MinorRuns,
			"majorRuns":      cst.MajorRuns,
			"rowsRewritten":  cst.RowsRewritten,
			"bytesRewritten": cst.BytesRewritten,
			"backlog":        cst.Backlog,
			"lastError":      cst.LastError,
		},
		"cache": map[string]any{
			"capBytes":   tstats.Cache.CapBytes,
			"bytes":      tstats.Cache.Bytes,
			"entries":    tstats.Cache.Entries,
			"hits":       tstats.Cache.Hits,
			"misses":     tstats.Cache.Misses,
			"evictions":  tstats.Cache.Evictions,
			"bloomSkips": tstats.Cache.BloomSkips,
		},
	})
}

// handleHealthz is process liveness: the daemon is up and serving.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleReadyz is traffic readiness. Draining answers 503 so a load
// balancer stops routing before shutdown completes; a read-only engine
// stays ready (reads still work) but reports its degraded mode.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
		return
	}
	h := s.db.Health()
	mode := "read-write"
	if h.ReadOnly {
		mode = "read-only"
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true, "mode": mode, "health": h.String()})
}
