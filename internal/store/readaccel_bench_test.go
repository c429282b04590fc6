package store

import (
	"path/filepath"
	"testing"
)

// The read-path benchmarks measure on/off pairs: the shared block cache
// turns repeated block reads into memory hits, and batched index
// resolution decodes each touched block once per query instead of once
// per posting entry.

// benchRunStack builds a single-shard store whose table is a stack of
// `runs` minor-compaction runs over ascending keys: run r holds the
// even pks of [2·r·perRun, 2·(r+1)·perRun), so the runs' zone maps are
// disjoint and odd pks never exist. The attribute index carries the
// include columns.
func benchRunStack(b *testing.B, runs, perRun int, include ...string) (*DB, *Table) {
	b.Helper()
	db, err := Open(filepath.Join(b.TempDir(), "stack.db"))
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		b.Fatal(err)
	}
	if err := tbl.CreateIndex("attribute", include...); err != nil {
		b.Fatal(err)
	}
	for r := 0; r < runs; r++ {
		batch := make([]Row, 0, perRun)
		for i := 0; i < perRun; i++ {
			pk := int64((r*perRun + i) * 2)
			attr := "pulse"
			if i%16 == 0 {
				// Sparse attribute: one posting per ~16 rows, scattered
				// over every block — the selective-query shape.
				attr = "smoking"
			}
			batch = append(batch, Row{
				Int(pk), Int(pk % 500),
				Str(attr), Str("x"), Float(float64(60 + pk%80)),
			})
		}
		if err := tbl.InsertBatch(batch); err != nil {
			b.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	if got := len(tbl.shards[0].segs); got != runs {
		b.Fatalf("expected %d runs, got %d", runs, got)
	}
	return db, tbl
}

// BenchmarkSegGetHot re-reads a small hot key set from a compacted
// store. cache=off decodes the owning block from disk on every get;
// cache=on serves the decoded rows from the shared LRU.
func BenchmarkSegGetHot(b *testing.B) {
	const runs, perRun = 8, 4000
	for _, cache := range []string{"off", "on"} {
		b.Run("cache="+cache, func(b *testing.B) {
			db, tbl := benchRunStack(b, runs, perRun)
			defer db.Close()
			if cache == "off" {
				db.SetBlockCacheCapacity(0)
			}
			ts := tbl.shards[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pk := int64((i % 64) * 2 * 499) // 64 hot keys across every run
				if _, ok, err := ts.segGet(encodeKey(Int(pk)), nil); !ok || err != nil {
					b.Fatalf("segGet(%d): ok=%v err=%v", pk, ok, err)
				}
			}
		})
	}
}

// BenchmarkIndexedQuerySegments runs the same indexed equality query
// repeatedly against segment-resident rows — the warehouse's hot
// shape (per-condition index probe, then batched pk resolution).
// cache=off pays block decodes per query; cache=on resolves from the
// shared LRU after the first; include=on, with the cache off, indexes
// attribute with every other column included, so the query answers
// from the posting stream and reads no block.
func BenchmarkIndexedQuerySegments(b *testing.B) {
	const runs, perRun = 4, 8000
	for _, variant := range []string{"cache=off", "cache=on", "include=on"} {
		b.Run(variant, func(b *testing.B) {
			var include []string
			if variant == "include=on" {
				include = []string{"patient", "value", "numeric"}
			}
			db, tbl := benchRunStack(b, runs, perRun, include...)
			defer db.Close()
			if variant != "cache=on" {
				db.SetBlockCacheCapacity(0)
			}
			// One posting per ~16 rows: the resolver touches nearly every
			// block for a small result — decode cost dominates.
			q := Query{Preds: []Pred{Eq("attribute", Str("smoking"))}}
			want := runs * perRun / 16
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, _, err := tbl.Query(q)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != want {
					b.Fatalf("query returned %d rows, want %d", len(rows), want)
				}
			}
		})
	}
}
