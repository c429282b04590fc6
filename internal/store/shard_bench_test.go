package store

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// The sharded benchmarks prove the decomposition claim: with the store
// partitioned, a batch's per-shard sub-batches append to independent
// WALs behind independent locks, in parallel, so ingest throughput
// scales with shards on a multicore runner (flat on one core), and
// fan-out queries answer from every shard concurrently. CI's
// bench-smoke step tracks both via BENCH_<n>.json.

// ingestBatchRows is the per-call batch size of the ingest benchmark,
// matching the pipeline's persistEvery-driven batches.
const ingestBatchRows = 64

// BenchmarkIngestSharded measures WAL-backed batched ingest from
// parallel clients at 1, 2 and 4 shards. The clients act as one logical
// writer, as core.Ingester does: each allocates its batch's ids and
// inserts it under one lock, so keys ascend on every shard. Acceptance
// target: ≥1.5× rows/s at 4 shards vs 1 on a multicore runner.
func BenchmarkIngestSharded(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			db, err := OpenSharded(filepath.Join(b.TempDir(), "ingest.db"), shards)
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
					for i := range batch {
						id := next + int64(i)
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
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)*ingestBatchRows/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkQueryFanout measures concurrent indexed range queries at 1,
// 2 and 4 shards: every query fans out, walks each shard's index slice
// under its own read lock, and merges.
func BenchmarkQueryFanout(b *testing.B) {
	const rows = 10000
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			db := OpenMemorySharded(shards)
			tbl, err := db.CreateTable(attrSchema())
			if err != nil {
				b.Fatal(err)
			}
			for _, col := range []string{"attribute", "numeric"} {
				if err := tbl.CreateIndex(col); err != nil {
					b.Fatal(err)
				}
			}
			batch := make([]Row, 0, 512)
			for id := int64(0); id < rows; id++ {
				attr := "pulse"
				if id%3 == 0 {
					attr = "weight"
				}
				batch = append(batch, Row{
					Int(id), Int(id % 500),
					Str(attr), Str("x"), Float(float64(id % 200)),
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
			q := Query{Preds: []Pred{
				Eq("attribute", Str("pulse")),
				Ge("numeric", Float(50)),
				Lt("numeric", Float(150)),
			}}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					out, _, err := tbl.Query(q)
					if err != nil {
						b.Fatal(err)
					}
					if len(out) == 0 {
						b.Fatal("empty result")
					}
				}
			})
		})
	}
}

// flushRuns inserts runs runs of perRun ascending keys into tbl,
// flushing db after each so every run becomes a segment on every
// shard, and returns the last key.
func flushRuns(b *testing.B, db *DB, tbl *Table, runs, perRun int) int64 {
	b.Helper()
	id := int64(0)
	batch := make([]Row, 0, 4096)
	for r := 0; r < runs; r++ {
		for i := 0; i < perRun; i++ {
			id++
			batch = append(batch, Row{Int(id), Int(id / 17), Str("pulse"), Str("x"), Float(float64(60 + id%80))})
			if len(batch) == cap(batch) || i == perRun-1 {
				if err := tbl.InsertBatch(batch); err != nil {
					b.Fatal(err)
				}
				batch = batch[:0]
			}
		}
		if err := db.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	return id
}

// BenchmarkMaxPK measures the id-allocation read every ingest request
// pays (core.PersistAll seeds row ids from it): 4 shards, each holding
// 4 flushed runs of ascending keys (~400k rows) and an empty memtable,
// the shape of a warehouse between compactions. MaxPK reads each
// shard's newest run tail, not the table.
func BenchmarkMaxPK(b *testing.B) {
	const shards, runs, perRun = 4, 4, 100_000
	db, err := OpenSharded(filepath.Join(b.TempDir(), "maxpk.db"), shards)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		b.Fatal(err)
	}
	id := flushRuns(b, db, tbl, runs, perRun)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk, ok, err := tbl.MaxPK()
		if err != nil || !ok || pk.I != id {
			b.Fatalf("MaxPK = %v,%v,%v, want %d", pk, ok, err, id)
		}
	}
}

// BenchmarkOpen measures reopening the warehouse's shape between
// compactions: 4 shards, each holding 4 flushed runs (100k rows in
// all) of a table with the attribute and patient indexes. Open reads
// the run footers, replays each shard's log and then builds both
// indexes from one walk of each shard's runs. blocks/op counts the run
// blocks one open reads (block-cache hits plus misses); it equals the
// store's block count when each block is read once.
func BenchmarkOpen(b *testing.B) {
	const shards, runs, perRun = 4, 4, 25_000
	path := filepath.Join(b.TempDir(), "open.db")
	db, err := OpenSharded(path, shards)
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		b.Fatal(err)
	}
	for _, col := range []string{"attribute", "patient"} {
		if err := tbl.CreateIndex(col); err != nil {
			b.Fatal(err)
		}
	}
	flushRuns(b, db, tbl, runs, perRun)
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var blocks int64
	for b.Loop() {
		db, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		cs := db.BlockCacheStats()
		blocks += cs.Hits + cs.Misses
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(blocks)/float64(b.N), "blocks/op")
}
