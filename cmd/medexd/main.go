// Command medexd is the long-running warehouse daemon: it owns a
// sharded store and serves the extraction pipeline and warehouse
// queries over HTTP/JSON.
//
//	medexd -db warehouse.db [-shards 4] [-addr 127.0.0.1:8606]
//
// Endpoints:
//
//	POST /v1/ingest          NDJSON stream of records; 202 = durable
//	GET  /v1/query           ?attr=pulse&min=100[&rows=true]
//	POST /v1/ask             {"conds":[{"attr":...,"term":...},...]}
//	GET  /v1/patient/{id}    one patient's chart
//	GET  /v1/prevalence      ?attr=smoking
//	GET  /v1/stats           engine health + ingest/table counters
//	GET  /healthz, /readyz   liveness and traffic readiness
//
// Robustness contract: a 202-acknowledged batch has been fsynced and
// survives a crash at any later instant; overload answers 429/503 with
// Retry-After instead of buffering; SIGTERM drains in-flight requests
// and the ingest queue within -drain-timeout, then closes the engine —
// waiting for any in-flight background compaction to reach its safe
// point first. Background compaction (on by default, tuned or disabled
// with the -compact-* flags) folds each shard's memtable into segment
// files off the write path once the -compact-mem-rows / -compact-wal-
// bytes thresholds trip, escalating to a full merge at -compact-fanout
// runs per table.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/ontology"
	"repro/internal/records"
	"repro/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("medexd: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the daemon lifecycle: validate config, open the engine, serve
// until SIGTERM/SIGINT, then drain and close. It returns only after the
// engine is closed, so a clean return means every acknowledged batch is
// on disk. out receives the "listening on" line (tests parse it to find
// the picked port).
func run(args []string, out io.Writer) error {
	cfg, err := parseFlags(args, os.Stderr)
	if err != nil {
		return err
	}

	db, err := store.OpenShardedWithPolicy(cfg.DBPath, cfg.Shards, cfg.compactionPolicy())
	if err != nil {
		return fmt.Errorf("opening %s: %w", cfg.DBPath, err)
	}
	db.SetBlockCacheCapacity(int64(cfg.BlockCacheMB) << 20)
	if h := db.Health(); !h.Ok() {
		// Degraded is a warning, not a startup failure: a read-only
		// engine still serves queries, and operators need the daemon
		// up to see /v1/stats.
		log.Printf("warning: engine health: %s", h)
	}

	// One vocabulary serves both extraction and the warehouse's
	// concept-term synonym resolution.
	ont := ontology.MustNew(ontology.Options{})
	sys, err := core.NewSystem(core.Config{Strategy: cfg.Strategy, ResolveSynonyms: true, Ontology: ont})
	if err != nil {
		db.Close()
		return err
	}
	if cfg.TrainCorpus != "" {
		backend, err := classify.New(cfg.Backend)
		if err != nil {
			db.Close()
			return err
		}
		recs, err := records.ReadCorpus(cfg.TrainCorpus)
		if err != nil {
			db.Close()
			return fmt.Errorf("reading -train-corpus: %w", err)
		}
		sys.TrainSmokingWith(recs, backend)
		log.Printf("trained smoking classifier on %d records (backend %s, %s)",
			len(recs), backend.Name(), backend.Params())
	}
	wh, err := core.OpenWarehouse(db, ont)
	if err != nil {
		db.Close()
		return err
	}

	// Catch SIGTERM before listening: once the daemon can answer
	// /readyz, a SIGTERM must drain it rather than kill it.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigc)

	srv := newServer(cfg, db, sys, wh)
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		srv.ing.Close()
		db.Close()
		return fmt.Errorf("listening on %s: %w", cfg.Addr, err)
	}
	fmt.Fprintf(out, "medexd: listening on %s\n", ln.Addr())

	hs := &http.Server{
		Handler: srv.routes(),
		// ReadTimeout covers the whole request read, so a stalled
		// ingest client is cut off instead of holding a connection
		// (and its extraction context) open indefinitely.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       cfg.IngestTimeout,
		WriteTimeout:      cfg.IngestTimeout + cfg.QueryTimeout,
		IdleTimeout:       60 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		srv.ing.Close()
		db.Close()
		return fmt.Errorf("serving: %w", err)
	case sig := <-sigc:
		log.Printf("received %s; draining (deadline %s)", sig, cfg.DrainTimeout)
	}

	// Shutdown sequence: stop admitting work, drain in-flight HTTP
	// requests, drain the ingest queue (final fsync), close the engine.
	// Order matters — the ingester must outlive the handlers that
	// submit to it, and the engine must outlive the ingester.
	srv.beginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
	defer cancel()
	shutdownErr := hs.Shutdown(ctx)
	if shutdownErr != nil {
		// Deadline exceeded: cut the stragglers off. Their batches are
		// unacknowledged, so no durability promise is broken.
		hs.Close()
	}
	<-serveErr // Serve has returned (http.ErrServerClosed)
	ingErr := srv.ing.Close()
	closeErr := db.Close()

	if shutdownErr != nil {
		return fmt.Errorf("drain deadline %s exceeded: %w", cfg.DrainTimeout, shutdownErr)
	}
	if err := errors.Join(ingErr, closeErr); err != nil {
		return fmt.Errorf("closing: %w", err)
	}
	log.Printf("drained and closed %s", cfg.DBPath)
	return nil
}
