package store

import (
	"path/filepath"
	"sync"
	"testing"
)

// The compaction benchmarks pin the two claims behind the background
// compactor: a minor fold costs the write set since the last
// compaction (not the corpus), and moving compaction off the write
// path keeps ingest throughput close to the no-compaction ceiling —
// unlike the foreground baseline, which stalls writers for every
// rewrite. CI's bench-smoke step tracks both via BENCH_<n>.json.

// benchCorpus bulk-loads n attribute rows.
func benchCorpus(b *testing.B, tbl *Table, n int) {
	b.Helper()
	batch := make([]Row, 0, 512)
	for id := int64(0); id < int64(n); id++ {
		batch = append(batch, Row{
			Int(id), Int(id % 500),
			Str("pulse"), Str("x"), Float(float64(60 + id%80)),
		})
		if len(batch) == cap(batch) {
			if err := tbl.InsertBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := tbl.InsertBatch(batch); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMinorCompaction measures one minor fold of a fixed-size
// write set sitting on top of a large already-compacted corpus. The
// incremental claim is visible in rows/s: the fold touches the fresh
// rows only, so its cost does not grow with the 50k-row corpus the
// way a major merge's would.
func BenchmarkMinorCompaction(b *testing.B) {
	const corpus, fresh = 50_000, 1_000
	db, err := Open(filepath.Join(b.TempDir(), "minor.db"))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		b.Fatal(err)
	}
	if err := tbl.CreateIndex("attribute"); err != nil {
		b.Fatal(err)
	}
	benchCorpus(b, tbl, corpus)
	if err := db.Compact(); err != nil {
		b.Fatal(err)
	}
	id := int64(corpus)
	batch := make([]Row, fresh)
	b.ResetTimer()
	for b.Loop() {
		b.StopTimer()
		for i := range batch {
			batch[i] = Row{
				Int(id), Int(id % 500),
				Str("pulse"), Str("x"), Float(float64(60 + id%80)),
			}
			id++
		}
		if err := tbl.InsertBatch(batch); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		minorCompactAll(b, db)
	}
	b.ReportMetric(float64(b.N)*fresh/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkIngestWithBackgroundCompaction measures parallel batched
// ingest on a 4-shard engine under three compaction regimes: none
// (the ceiling), background (the compactor folds concurrently off the
// write path), and foreground (writers call Compact inline at the
// same cadence — the pre-background baseline). The parallel clients
// act as one logical writer, as core.Ingester does: each allocates its
// batch's ids and inserts it under one lock. Acceptance target:
// background rows/s within a few percent of none, foreground visibly
// below both.
func BenchmarkIngestWithBackgroundCompaction(b *testing.B) {
	const shards, compactEvery = 4, 4000
	run := func(b *testing.B, open func(path string) (*DB, error), foreground bool) {
		db, err := open(filepath.Join(b.TempDir(), "bg.db"))
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		tbl, err := db.CreateTable(attrSchema())
		if err != nil {
			b.Fatal(err)
		}
		if err := tbl.CreateIndex("attribute"); err != nil {
			b.Fatal(err)
		}
		var (
			mu   sync.Mutex
			next int64
		)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			batch := make([]Row, ingestBatchRows)
			for pb.Next() {
				mu.Lock()
				base := next
				for i := range batch {
					id := base + int64(i)
					batch[i] = Row{
						Int(id), Int(id % 500),
						Str("pulse"), Str("x"), Float(float64(60 + id%80)),
					}
				}
				next += ingestBatchRows
				err := tbl.InsertBatch(batch)
				mu.Unlock()
				if err != nil {
					b.Fatal(err)
				}
				if foreground && base/compactEvery != (base+ingestBatchRows)/compactEvery {
					if err := db.Compact(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.StopTimer()
		b.ReportMetric(float64(b.N)*ingestBatchRows/b.Elapsed().Seconds(), "rows/s")
	}
	b.Run("compact=none", func(b *testing.B) {
		run(b, func(path string) (*DB, error) { return OpenSharded(path, shards) }, false)
	})
	b.Run("compact=background", func(b *testing.B) {
		run(b, func(path string) (*DB, error) {
			return OpenShardedWithPolicy(path, shards, CompactionPolicy{MemRows: compactEvery})
		}, false)
	})
	b.Run("compact=foreground", func(b *testing.B) {
		run(b, func(path string) (*DB, error) { return OpenSharded(path, shards) }, true)
	})
}
