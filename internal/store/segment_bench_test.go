package store

import (
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// The segment benchmarks prove the tentpole's two claims: a compacted
// store scans rows from immutable segment files at streaming speed, and
// a long snapshot scan no longer blocks ingest — writers land in the
// memtable while readers iterate pinned segments lock-free.

// benchCompactedTable builds a file-backed store with rows rows folded
// into segments.
func benchCompactedTable(b *testing.B, shards int, rows int) (*DB, *Table) {
	b.Helper()
	db, err := OpenSharded(filepath.Join(b.TempDir(), "seg.db"), shards)
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]Row, 0, 1024)
	for id := int64(1); id <= int64(rows); id++ {
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
	if len(batch) > 0 {
		if err := tbl.InsertBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		b.Fatal(err)
	}
	return db, tbl
}

// BenchmarkSegmentScan measures a full snapshot scan of a compacted
// store: every row streams from segment files through the k-way merge
// with an empty memtable.
func BenchmarkSegmentScan(b *testing.B) {
	const rows = 50000
	db, tbl := benchCompactedTable(b, 1, rows)
	defer db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		tbl.Scan(func(Row) bool { n++; return true })
		if n != rows {
			b.Fatalf("scan saw %d rows, want %d", n, rows)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*rows/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkQuerySnapshotDuringIngest measures batched ingest throughput
// twice over the same store: first alone, then with a long analytic
// scan in progress — a reader that keeps a snapshot open and streams it
// at a paced rate (a slow consumer), the shape that under the previous
// scan-under-RWMutex design held the read lock for its whole lifetime
// and stalled every writer. The acceptance target is scan_rows/s within
// ~20% of base_rows/s: an open snapshot must cost writers nothing
// beyond the CPU its reader actually burns. On a single-vCPU host the
// ratio is noisy (hypervisor steal stretches whichever phase it lands
// on); judge it across a few -count runs, not one.
func BenchmarkQuerySnapshotDuringIngest(b *testing.B) {
	// Single shard: one table shard, one RWMutex — the configuration
	// where the pre-segment design serialized a scan against every
	// writer. The reader streams a pinned view's rows through the
	// callback, so its pacing takes effect row by row.
	const preRows = 50000
	db, tbl := benchCompactedTable(b, 1, preRows)
	defer db.Close()
	var next atomic.Int64
	next.Store(preRows + 1)
	ingest := func(n int) {
		batch := make([]Row, ingestBatchRows)
		for i := 0; i < n; i++ {
			base := next.Add(ingestBatchRows) - ingestBatchRows
			for j := range batch {
				id := base + int64(j)
				batch[j] = Row{
					Int(id), Int(id % 500),
					Str("pulse"), Str("x"), Float(float64(60 + id%80)),
				}
			}
			if err := tbl.InsertBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.ResetTimer()
	// Phase 1: ingest-only baseline.
	start := b.Elapsed()
	ingest(b.N)
	base := (b.Elapsed() - start).Seconds()

	// Fold phase 1 into segments (untimed) so both phases ingest into an
	// empty memtable; otherwise phase 2 pays extra memtable/GC cost for the
	// rows phase 1 left behind and the comparison conflates that with
	// reader interference.
	b.StopTimer()
	if err := db.Compact(); err != nil {
		b.Fatal(err)
	}
	b.StartTimer()

	// Phase 2: the same ingest volume under a continuous long scan. The
	// reader paces itself (sleeping every few hundred rows) so the
	// measurement isolates blocking, not single-core CPU competition: a
	// paced reader models an analytic client streaming results out, and
	// is exactly the shape that used to pin the read lock for seconds.
	stop := make(chan struct{})
	scanDone := make(chan int64)
	go func() {
		var scanned int64
		for {
			select {
			case <-stop:
				scanDone <- scanned
				return
			default:
			}
			snap := pinTable(tbl)
			_ = snap.scan(func(Row) bool {
				scanned++
				if scanned%256 == 0 {
					time.Sleep(200 * time.Microsecond)
					select {
					case <-stop:
						return false
					default:
					}
				}
				return true
			})
			snap.release()
		}
	}()
	start = b.Elapsed()
	ingest(b.N)
	during := (b.Elapsed() - start).Seconds()
	close(stop)
	scanned := <-scanDone
	b.StopTimer()

	rows := float64(b.N) * ingestBatchRows
	b.ReportMetric(rows/base, "base_rows/s")
	b.ReportMetric(rows/during, "scan_rows/s")
	b.ReportMetric((rows/during)/(rows/base), "ratio")
	b.ReportMetric(float64(scanned), "rows_scanned")
}
