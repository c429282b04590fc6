package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// fakeExtraction builds a minimal extraction with one attribute row for
// the given patient.
func fakeExtraction(patient int) Extraction {
	return Extraction{
		Patient: patient,
		Numeric: map[string]NumericValue{"pulse": {Attr: "pulse", Value: 72}},
	}
}

// TestIngesterConcurrentSubmit: many producers submit batches at once;
// every acknowledged batch's rows must land exactly once (unique ids —
// the single-writer design is what makes concurrent PersistAll safe).
func TestIngesterConcurrentSubmit(t *testing.T) {
	db := store.OpenMemorySharded(4)
	defer db.Close()
	ing := NewIngester(db, IngestConfig{QueueDepth: 8, MaxGroup: 4})

	const producers, batchesEach = 8, 10
	var wg sync.WaitGroup
	var mu sync.Mutex
	ackedRows := 0
	rejected := 0
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < batchesEach; b++ {
				exs := []Extraction{fakeExtraction(p*1000 + b)}
				for {
					n, err := ing.Submit(context.Background(), exs)
					if errors.Is(err, ErrBackpressure) {
						mu.Lock()
						rejected++
						mu.Unlock()
						time.Sleep(time.Millisecond)
						continue
					}
					if err != nil {
						t.Errorf("producer %d: %v", p, err)
						return
					}
					mu.Lock()
					ackedRows += n
					mu.Unlock()
					break
				}
			}
		}(p)
	}
	wg.Wait()
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	tbl, err := db.Table("extracted")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != ackedRows || ackedRows != producers*batchesEach {
		t.Fatalf("table has %d rows, acked %d, want %d", tbl.Len(), ackedRows, producers*batchesEach)
	}
	st := ing.Stats()
	if st.Batches != producers*batchesEach {
		t.Fatalf("Stats.Batches = %d, want %d", st.Batches, producers*batchesEach)
	}
	if st.Rows != int64(ackedRows) {
		t.Fatalf("Stats.Rows = %d, want %d", st.Rows, ackedRows)
	}
	if st.Groups > st.Batches {
		t.Fatalf("more groups (%d) than batches (%d)", st.Groups, st.Batches)
	}
	if int64(rejected) != st.Rejected {
		t.Fatalf("observed %d rejections, Stats.Rejected = %d", rejected, st.Rejected)
	}
	if st.PeakQueue > int64(8) {
		t.Fatalf("PeakQueue %d exceeds QueueDepth 8", st.PeakQueue)
	}
}

// gatedStore wraps a store, parking every Sync on a gate so tests
// can stall the writer goroutine deterministically. Each Sync call
// announces itself on entered (when set) before parking; closing gate
// unparks every present and future Sync.
type gatedStore struct {
	*store.DB
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedStore) Sync() error {
	if g.entered != nil {
		select {
		case g.entered <- struct{}{}:
		default:
		}
	}
	<-g.gate
	return g.DB.Sync()
}

// TestIngesterBackpressure: with the writer stalled, Submit fills the
// queue and then fails fast with ErrBackpressure instead of blocking or
// buffering without bound.
func TestIngesterBackpressure(t *testing.T) {
	eng := &gatedStore{
		DB:      store.OpenMemory(),
		entered: make(chan struct{}, 1),
		gate:    make(chan struct{}),
	}
	defer eng.DB.Close()
	const depth = 3
	ing := NewIngester(eng, IngestConfig{QueueDepth: depth, MaxGroup: 1})
	defer func() {
		close(eng.gate) // unpark the writer for the drain in Close
		ing.Close()
	}()

	// Stall the writer inside its first group commit, then fill the
	// queue behind it.
	acks := make(chan error, depth+1)
	submit := func(p int) {
		_, err := ing.Submit(context.Background(), []Extraction{fakeExtraction(p)})
		acks <- err
	}
	go submit(0)
	<-eng.entered // writer holds batch 0, parked in Sync

	// Fill the queue to depth, then the next submit must be rejected.
	for i := 1; i <= depth; i++ {
		go submit(i)
	}
	waitFor(t, func() bool { return ing.Stats().Queued == depth })
	if _, err := ing.Submit(context.Background(), []Extraction{fakeExtraction(99)}); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("overflow submit: err = %v, want ErrBackpressure", err)
	}
	if got := ing.Stats().Rejected; got != 1 {
		t.Fatalf("Stats.Rejected = %d, want 1", got)
	}
}

// waitFor polls cond up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIngesterCloseDrains: batches queued before Close are persisted,
// fsynced and acknowledged during the drain; submits after Close are
// refused.
func TestIngesterCloseDrains(t *testing.T) {
	eng := &gatedStore{
		DB:      store.OpenMemory(),
		entered: make(chan struct{}, 1),
		gate:    make(chan struct{}),
	}
	defer eng.DB.Close()
	ing := NewIngester(eng, IngestConfig{QueueDepth: 16, MaxGroup: 4})

	const n = 6
	acks := make(chan error, n)
	submit := func(i int) {
		_, err := ing.Submit(context.Background(), []Extraction{fakeExtraction(i)})
		acks <- err
	}
	// Park the writer on the first batch's Sync, then queue the rest
	// behind it so Close has a non-empty queue to drain.
	go submit(0)
	<-eng.entered
	for i := 1; i < n; i++ {
		go submit(i)
	}
	waitFor(t, func() bool { return ing.Stats().Queued == n-1 })
	close(eng.gate)
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := <-acks; err != nil {
			t.Fatalf("queued batch not acknowledged clean on drain: %v", err)
		}
	}
	tbl, err := eng.Table("extracted")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != n {
		t.Fatalf("table has %d rows after drain, want %d", tbl.Len(), n)
	}

	if _, err := ing.Submit(context.Background(), []Extraction{fakeExtraction(100)}); !errors.Is(err, ErrIngesterClosed) {
		t.Fatalf("submit after close: err = %v, want ErrIngesterClosed", err)
	}
	// Close is idempotent.
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIngesterSubmitContextCancel: a caller abandoning its wait gets
// ctx.Err(), and the batch (already queued) still persists — it is
// unacknowledged, not lost.
func TestIngesterSubmitContextCancel(t *testing.T) {
	eng := &gatedStore{
		DB:      store.OpenMemory(),
		entered: make(chan struct{}, 1),
		gate:    make(chan struct{}),
	}
	defer eng.DB.Close()
	ing := NewIngester(eng, IngestConfig{QueueDepth: 4, MaxGroup: 1})

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := ing.Submit(ctx, []Extraction{fakeExtraction(7)})
		errc <- err
	}()
	<-eng.entered // writer holds the batch, parked in Sync
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(eng.gate)
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	tbl, err := eng.Table("extracted")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("abandoned batch not persisted: %d rows", tbl.Len())
	}
}

// TestIngesterEmptySubmit: a zero-record batch acknowledges immediately
// without touching the store.
func TestIngesterEmptySubmit(t *testing.T) {
	db := store.OpenMemory()
	defer db.Close()
	ing := NewIngester(db, IngestConfig{})
	n, err := ing.Submit(context.Background(), nil)
	if n != 0 || err != nil {
		t.Fatalf("empty submit: n=%d err=%v", n, err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Table("extracted"); err == nil {
		t.Fatal("empty submit created the table")
	}
}
