package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// ErrBackpressure is returned by Ingester.Submit when the bounded batch
// queue is full: the writer is not keeping up and the caller should
// shed load (an HTTP frontend maps it to 429 + Retry-After) instead of
// buffering without bound.
var ErrBackpressure = errors.New("core: ingest queue full")

// ErrIngesterClosed is returned by Submit after Close has begun: the
// ingester is draining and accepts no new batches.
var ErrIngesterClosed = errors.New("core: ingester closed")

// IngestConfig tunes an Ingester. The zero value selects the defaults.
type IngestConfig struct {
	// QueueDepth bounds the batches queued awaiting persistence
	// (default 64). A full queue makes Submit fail fast with
	// ErrBackpressure — the memory bound that keeps a burst of
	// producers from growing the heap without limit.
	QueueDepth int
	// MaxGroup bounds how many queued batches one group commit folds
	// together (default 16): the writer drains up to MaxGroup batches,
	// persists them back-to-back, then fsyncs once for the whole
	// group, so a deep queue amortizes the sync cost instead of paying
	// it per batch.
	MaxGroup int
	// NoSync skips the fsync before acknowledgment. Acknowledged
	// batches are then only as durable as the OS page cache — they
	// survive a process crash but not a machine crash.
	NoSync bool
}

func (c IngestConfig) withDefaults() IngestConfig {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxGroup <= 0 {
		c.MaxGroup = 16
	}
	return c
}

// IngestStats is a point-in-time snapshot of an Ingester's counters.
type IngestStats struct {
	Batches   int64 // batches acknowledged (persist attempted, ack sent)
	Rows      int64 // attribute rows written by acknowledged batches
	Groups    int64 // group commits (one fsync each unless NoSync)
	Rejected  int64 // Submit calls refused with ErrBackpressure
	Queued    int   // batches currently waiting in the queue
	PeakQueue int64 // high-water mark of Queued since start
}

// Ingester serializes extraction batches into a store through a
// single writer goroutine with a bounded queue and group commit. It is
// the write path of a long-lived server: many producers Submit
// concurrently, exactly one goroutine calls PersistAll (so persisted row
// ids never collide), and a batch is acknowledged only after its rows —
// and the fsync covering them — have succeeded. A full queue rejects
// instead of buffering, which is what keeps a daemon's memory bounded
// under overload.
type Ingester struct {
	db  Storage
	cfg IngestConfig

	mu     sync.RWMutex // guards closed vs. the jobs channel close
	closed bool
	jobs   chan ingestJob

	loopDone chan struct{}
	closeErr error

	batches  atomic.Int64
	rows     atomic.Int64
	groups   atomic.Int64
	rejected atomic.Int64
	peak     atomic.Int64
}

type ingestJob struct {
	exs  []Extraction
	done chan ackResult
}

type ackResult struct {
	rows int
	err  error
}

// NewIngester starts the writer goroutine. Callers must Close it to
// drain the queue and release the goroutine; Close does not close the
// underlying store.
func NewIngester(db Storage, cfg IngestConfig) *Ingester {
	cfg = cfg.withDefaults()
	ing := &Ingester{
		db:       db,
		cfg:      cfg,
		jobs:     make(chan ingestJob, cfg.QueueDepth),
		loopDone: make(chan struct{}),
	}
	go ing.run()
	return ing
}

// Submit queues one batch and blocks until the writer has persisted it
// (returning the attribute rows written) or refuses it. It fails fast
// with ErrBackpressure when the queue is full and ErrIngesterClosed
// after Close. A ctx cancellation while waiting returns ctx.Err(), but
// the batch is already queued and may still persist — the caller must
// treat it as unacknowledged, not as absent.
func (ing *Ingester) Submit(ctx context.Context, exs []Extraction) (int, error) {
	if len(exs) == 0 {
		return 0, nil
	}
	j := ingestJob{exs: exs, done: make(chan ackResult, 1)}
	ing.mu.RLock()
	if ing.closed {
		ing.mu.RUnlock()
		return 0, ErrIngesterClosed
	}
	select {
	case ing.jobs <- j:
		if q := int64(len(ing.jobs)); q > ing.peak.Load() {
			ing.peak.Store(q) // racy max is fine for a gauge
		}
	default:
		ing.mu.RUnlock()
		ing.rejected.Add(1)
		return 0, ErrBackpressure
	}
	ing.mu.RUnlock()

	select {
	case r := <-j.done:
		return r.rows, r.err
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// run is the single writer: it drains up to MaxGroup queued batches,
// persists them in arrival order, fsyncs once, then acknowledges each.
func (ing *Ingester) run() {
	defer close(ing.loopDone)
	for {
		j, ok := <-ing.jobs
		if !ok {
			return
		}
		group := []ingestJob{j}
	fill:
		for len(group) < ing.cfg.MaxGroup {
			select {
			case j2, ok2 := <-ing.jobs:
				if !ok2 {
					break fill
				}
				group = append(group, j2)
			default:
				break fill
			}
		}

		acks := make([]ackResult, len(group))
		anyOK := false
		for i, g := range group {
			n, err := PersistAll(ing.db, g.exs)
			acks[i] = ackResult{rows: n, err: err}
			if err == nil {
				anyOK = true
			}
		}
		if !ing.cfg.NoSync && anyOK {
			if err := ing.db.Sync(); err != nil {
				// Without the fsync no batch in the group is durable;
				// none may be acknowledged as persisted.
				for i := range acks {
					if acks[i].err == nil {
						acks[i].err = err
					}
				}
			}
		}
		ing.groups.Add(1)
		for i, g := range group {
			if acks[i].err == nil {
				ing.batches.Add(1)
				ing.rows.Add(int64(acks[i].rows))
			}
			g.done <- acks[i]
		}
	}
}

// Close stops accepting batches, drains everything already queued
// through the writer (each queued batch still gets persisted, fsynced
// and acknowledged), issues a final Sync, and releases the goroutine.
// Safe to call more than once.
func (ing *Ingester) Close() error {
	ing.mu.Lock()
	if !ing.closed {
		ing.closed = true
		close(ing.jobs)
	}
	ing.mu.Unlock()
	<-ing.loopDone
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.closeErr == nil {
		ing.closeErr = ing.db.Sync()
	}
	return ing.closeErr
}

// Stats snapshots the ingester's counters.
func (ing *Ingester) Stats() IngestStats {
	return IngestStats{
		Batches:   ing.batches.Load(),
		Rows:      ing.rows.Load(),
		Groups:    ing.groups.Load(),
		Rejected:  ing.rejected.Load(),
		Queued:    len(ing.jobs),
		PeakQueue: ing.peak.Load(),
	}
}
