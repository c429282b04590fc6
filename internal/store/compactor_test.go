package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// minorCompactAll runs one minor compaction on every shard, as the
// background compactor would.
func minorCompactAll(t testing.TB, db *DB) {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, sh := range db.shards {
		if err := db.compactShard(sh, minorCompact); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompactionPolicyDefaults(t *testing.T) {
	p := CompactionPolicy{}.withDefaults()
	if p.MemRows != DefaultCompactMemRows || p.Fanout != DefaultCompactFanout {
		t.Fatalf("zero policy did not pick defaults: %+v", p)
	}
	q := CompactionPolicy{MemRows: 7, Fanout: 2}.withDefaults()
	if q.MemRows != 7 || q.Fanout != 2 {
		t.Fatalf("explicit thresholds overridden: %+v", q)
	}
}

// TestMinorCompactionRewritesOnlyMemtable is the incremental-cost pin:
// after a major merge of a large corpus, ingesting N rows and minor-
// compacting must rewrite exactly N rows — not the corpus.
func TestMinorCompactionRewritesOnlyMemtable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "inc.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("norm"); err != nil {
		t.Fatal(err)
	}
	const corpus = 500
	var rows []Row
	for i := 0; i < corpus; i++ {
		rows = append(rows, Row{Int(int64(i)), Str(fmt.Sprintf("n%d", i%7)), Str("p"), Float(1), Bool(true)})
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	base := db.CompactionStats()
	if base.MajorRuns != 1 || base.RowsRewritten != corpus {
		t.Fatalf("major baseline stats off: %+v", base)
	}

	const n = 57
	rows = rows[:0]
	for i := 0; i < n; i++ {
		rows = append(rows, Row{Int(int64(corpus + i)), Str("fresh"), Str("p"), Float(2), Bool(false)})
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	minorCompactAll(t, db)
	cs := db.CompactionStats()
	if cs.MinorRuns != 1 {
		t.Fatalf("MinorRuns = %d, want 1", cs.MinorRuns)
	}
	if got := cs.RowsRewritten - base.RowsRewritten; got != n {
		t.Fatalf("minor compaction rewrote %d rows, want exactly the %d-row memtable", got, n)
	}
	if cs.BytesRewritten <= base.BytesRewritten {
		t.Fatal("minor compaction reported no bytes written")
	}
	if cs.Backlog != 0 {
		t.Fatalf("backlog after compaction = %d, want 0", cs.Backlog)
	}

	// The new run stacks on the old one; reads see both, newest wins.
	st := tbl.Stats()
	if st.Segments != 2 {
		t.Fatalf("segments after minor = %d, want 2", st.Segments)
	}
	if st.Compaction.MinorRuns != 1 {
		t.Fatalf("Table.Stats did not surface compaction counters: %+v", st.Compaction)
	}
	if tbl.Len() != corpus+n {
		t.Fatalf("Len = %d", tbl.Len())
	}
	if got, err := tbl.Lookup("norm", Str("fresh")); err != nil || len(got) != n {
		t.Fatalf("index over minor-compacted rows: %d rows, err %v", len(got), err)
	}
	// Writes keep flowing after the swap.
	if err := tbl.Insert(Row{Int(9000), Str("post"), Str("p"), Float(0), Bool(true)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: multi-run manifest replays to the same state.
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Health().RecoveredWithLoss {
		t.Fatal("multi-run reopen reported loss")
	}
	tbl2, err := db2.Table("concepts")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != corpus+n+1 {
		t.Fatalf("recovered Len = %d, want %d", tbl2.Len(), corpus+n+1)
	}
	for _, id := range []int64{0, corpus - 1, corpus, corpus + n - 1, 9000} {
		if _, err := tbl2.Get(Int(id)); err != nil {
			t.Errorf("row %d lost across minor compaction + reopen: %v", id, err)
		}
	}
	if got, err := tbl2.Lookup("norm", Str("fresh")); err != nil || len(got) != n {
		t.Fatalf("recovered index: %d rows, err %v", len(got), err)
	}
}

// TestMinorCompactionResurrectionMask: a row inserted while the build
// phase is in flight is not in the capture, so the new run does not
// hold it. The commit must keep it as residue: it stays in the
// memtable — the only row there after the swap — is re-logged in the
// truncated WAL, and survives a reopen.
func TestMinorCompactionResurrectionMask(t *testing.T) {
	path := filepath.Join(t.TempDir(), "res.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable(testSchema())
	if err := tbl.CreateIndex("norm"); err != nil {
		t.Fatal(err)
	}
	row := func(id int64) Row { return Row{Int(id), Str("n"), Str("p"), Float(0), Bool(true)} }
	for i := int64(0); i < 10; i++ {
		if err := tbl.Insert(row(i)); err != nil {
			t.Fatal(err)
		}
	}
	hookDone := make(chan error, 1)
	testHookCompactBuild = func() {
		testHookCompactBuild = nil
		hookDone <- tbl.Insert(row(10))
	}
	defer func() { testHookCompactBuild = nil }()
	minorCompactAll(t, db)
	if err := <-hookDone; err != nil {
		t.Fatalf("mid-build insert: %v", err)
	}
	ts := tbl.shards[0]
	if len(ts.mem) != 1 || ts.mem[0].key != encodeKey(Int(10)) {
		t.Fatalf("memtable holds %d rows after the swap, want only the mid-build insert", len(ts.mem))
	}
	if n := ts.segs[len(ts.segs)-1].nRows; n != 10 {
		t.Fatalf("new run holds %d rows, want the 10 captured", n)
	}
	verify := func(tb *Table, stage string) {
		t.Helper()
		if got := tb.Len(); got != 11 {
			t.Fatalf("%s: Len = %d, want 11", stage, got)
		}
		for i := int64(0); i <= 10; i++ {
			if _, err := tb.Get(Int(i)); err != nil {
				t.Fatalf("%s: row %d: %v", stage, i, err)
			}
		}
		checkIndexConsistent(t, tb)
	}
	verify(tbl, "after swap")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, _ := db2.Table("concepts")
	verify(tbl2, "after reopen")
}

// TestStatsResponsiveDuringCompaction pins the narrowed critical
// section: monitoring, reads, writes and re-creating an existing table
// must all return while a compaction build is in flight, not block
// behind it.
func TestStatsResponsiveDuringCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, _ := db.CreateTable(testSchema())
	for i := 0; i < 50; i++ {
		tbl.Insert(Row{Int(int64(i)), Str("n"), Str("p"), Float(0), Bool(true)})
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	testHookCompactBuild = func() {
		close(entered)
		<-release
	}
	defer func() { testHookCompactBuild = nil }()

	compactErr := make(chan error, 1)
	go func() { compactErr <- db.Compact() }()
	<-entered

	done := make(chan struct{})
	go func() {
		defer close(done)
		if got := tbl.Stats().Rows; got != 50 {
			t.Errorf("Stats mid-compaction: Rows = %d", got)
		}
		// Ingest re-creates its table per batch; that must not queue a
		// writer on the database lock the compaction holds shared.
		if got, err := db.CreateTable(testSchema()); err != nil || got != tbl {
			t.Errorf("CreateTable(existing) mid-compaction: %v, %v", got, err)
		}
		if h := db.Health(); h.ReadOnly {
			t.Errorf("Health mid-compaction: %+v", h)
		}
		if _, err := tbl.Get(Int(7)); err != nil {
			t.Errorf("Get mid-compaction: %v", err)
		}
		if err := tbl.Insert(Row{Int(777), Str("n"), Str("p"), Float(0), Bool(true)}); err != nil {
			t.Errorf("Insert mid-compaction: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		close(release) // let the compaction end so the deferred Close returns
		t.Fatal("Stats/CreateTable/Health/Get/Insert blocked behind an in-flight compaction")
	}
	close(release)
	if err := <-compactErr; err != nil {
		t.Fatal(err)
	}
	// The mid-flight insert is post-capture residue: it must survive.
	if _, err := tbl.Get(Int(777)); err != nil {
		t.Fatalf("mid-compaction insert lost: %v", err)
	}
	if tbl.Len() != 51 {
		t.Fatalf("Len = %d, want 51", tbl.Len())
	}
}

// TestIndexCreatedDuringMajorCompaction creates an index on a new
// column while a major compaction's build is held. The capture never
// saw that index, and the commit keeps the live indexes rather than
// rebuilding any, so the index built mid-flight must come out of the
// commit exactly consistent with the table (rows folded into the new
// run, residue written during the build), answer an equality query,
// and survive a reopen.
func TestIndexCreatedDuringMajorCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idxmid.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("attribute"); err != nil {
		t.Fatal(err)
	}
	row := func(id int64) Row {
		return Row{Int(id), Int(id % 9), Str("pulse"), Str(fmt.Sprintf("v%d", id%7)), Float(float64(id))}
	}
	insert := func(lo, hi int64) {
		t.Helper()
		for id := lo; id < hi; id++ {
			if err := tbl.Insert(row(id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(0, 600)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	insert(600, 900) // memtable rows the merge folds

	entered := make(chan struct{})
	release := make(chan struct{})
	testHookCompactBuild = func() {
		close(entered)
		<-release
	}
	defer func() { testHookCompactBuild = nil }()
	compactErr := make(chan error, 1)
	go func() { compactErr <- db.Compact() }()
	<-entered
	if err := tbl.CreateIndex("value"); err != nil {
		close(release)
		t.Fatal(err)
	}
	// Post-capture writes: residue rows.
	insert(900, 950)
	close(release)
	if err := <-compactErr; err != nil {
		t.Fatal(err)
	}
	if got := len(tbl.shards[0].segs); got != 1 {
		t.Fatalf("major compaction left %d runs", got)
	}

	verify := func(stage string) {
		t.Helper()
		checkIndexConsistent(t, tbl)
		want := scanWhere(t, tbl, func(r Row) bool { return r[3].S == "v3" })
		got, stats, err := tbl.Query(Query{Preds: []Pred{Eq("value", Str("v3"))}})
		if err != nil {
			t.Fatalf("%s: query: %v", stage, err)
		}
		if !stats.UsedIndex || stats.IndexCol != "value" {
			t.Fatalf("%s: plan %s, want index(value)", stage, stats.Plan())
		}
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("%s: index answered %d rows, scan %d", stage, len(got), len(want))
		}
		for i := range got {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("%s: row %d: index %v, scan %v", stage, i, got[i], want[i])
			}
		}
	}
	verify("after commit")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(path); err != nil {
		t.Fatal(err)
	}
	if tbl, err = db.Table("extracted"); err != nil {
		t.Fatal(err)
	}
	verify("after reopen")
}

// TestBackgroundCompactionUnderLoad drives concurrent batch ingest and
// queries against an engine with aggressive auto-compaction thresholds;
// run under -race this is the data-race pin for the whole trigger path.
func TestBackgroundCompactionUnderLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bg.db")
	db, err := OpenShardedWithPolicy(path, 4, CompactionPolicy{MemRows: 100, Fanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("norm"); err != nil {
		t.Fatal(err)
	}

	const writers, perWriter, batch = 4, 1200, 40
	var wg, rg sync.WaitGroup
	stopReaders := make(chan struct{})
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopReaders:
					return
				default:
				}
				tbl.Get(Int(int64(i % (writers * perWriter))))
				if _, err := tbl.Lookup("norm", Str("n2")); err != nil {
					t.Errorf("Lookup under load: %v", err)
					return
				}
				tbl.Len()
				tbl.Stats()
			}
		}()
	}
	// The writers act as one logical writer, as core.Ingester does:
	// each allocates its batch's ids and inserts it under one lock.
	var (
		werr    [writers]error
		writeMu sync.Mutex
		next    int64
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for off := 0; off < perWriter; off += batch {
				writeMu.Lock()
				rows := make([]Row, 0, batch)
				for i := 0; i < batch; i++ {
					id := next + int64(i)
					rows = append(rows, Row{Int(id), Str(fmt.Sprintf("n%d", id%5)), Str("p"), Float(0), Bool(true)})
				}
				err := tbl.InsertBatch(rows)
				next += batch
				writeMu.Unlock()
				if err != nil {
					werr[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopReaders)
	rg.Wait()
	for _, err := range werr {
		if err != nil {
			t.Fatal(err)
		}
	}

	// 4800 rows against a 100-row threshold: compactions must have run
	// (or a wake token is still queued — give the compactor a moment).
	deadline := time.Now().Add(10 * time.Second)
	var cs CompactionStats
	for {
		cs = db.CompactionStats()
		if cs.MinorRuns+cs.MajorRuns > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if cs.MinorRuns+cs.MajorRuns == 0 {
		t.Fatalf("background compactor never ran: %+v", cs)
	}
	if cs.LastError != "" {
		t.Fatalf("background compaction error: %s", cs.LastError)
	}
	if got := tbl.Len(); got != writers*perWriter {
		t.Fatalf("Len under background compaction = %d, want %d", got, writers*perWriter)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Health().RecoveredWithLoss {
		t.Fatal("reopen after background compaction reported loss")
	}
	tbl2, _ := db2.Table("concepts")
	if got := tbl2.Len(); got != writers*perWriter {
		t.Fatalf("recovered Len = %d, want %d", got, writers*perWriter)
	}
	for id := 0; id < writers*perWriter; id += 97 {
		if _, err := tbl2.Get(Int(int64(id))); err != nil {
			t.Fatalf("row %d lost: %v", id, err)
		}
	}
	// Index agrees with a scan after recovery.
	want := 0
	tbl2.Scan(func(r Row) bool {
		if r[1].S == "n2" {
			want++
		}
		return true
	})
	if got, err := tbl2.Lookup("norm", Str("n2")); err != nil || len(got) != want {
		t.Fatalf("recovered index: %d rows, want %d (err %v)", len(got), want, err)
	}
}

// TestBackgroundCompactionFanoutEscalates: once a table's run stack
// reaches the fan-out bound the next trigger majors, collapsing it.
func TestBackgroundCompactionFanoutEscalates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fan.db")
	db, err := OpenShardedWithPolicy(path, 1, CompactionPolicy{MemRows: 50, Fanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, _ := db.CreateTable(testSchema())
	id := int64(0)
	ingest := func(n int) {
		rows := make([]Row, 0, n)
		for i := 0; i < n; i++ {
			rows = append(rows, Row{Int(id), Str("n"), Str("p"), Float(0), Bool(true)})
			id++
		}
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
	}
	waitRuns := func(n int64) {
		deadline := time.Now().Add(10 * time.Second)
		for {
			cs := db.CompactionStats()
			if cs.MinorRuns+cs.MajorRuns >= n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("compactor stalled at %+v waiting for %d runs", cs, n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// Three threshold crossings stack three runs...
	for i := int64(1); i <= 3; i++ {
		ingest(60)
		waitRuns(i)
	}
	if st := tbl.Stats(); st.Segments < 3 {
		t.Fatalf("run stack = %d segments, want >= 3", st.Segments)
	}
	// ...and the fourth trigger escalates to a major merge.
	ingest(60)
	waitRuns(4)
	cs := db.CompactionStats()
	if cs.MajorRuns == 0 {
		t.Fatalf("fan-out never escalated to a major merge: %+v", cs)
	}
	if st := tbl.Stats(); st.Segments != 1 {
		t.Fatalf("major merge left %d segments", st.Segments)
	}
	if got := tbl.Len(); got != int(id) {
		t.Fatalf("Len = %d, want %d", got, id)
	}
}

// TestOpenSweepsCompactionLeftovers: segment files and truncated-WAL
// temps orphaned by a compaction crash are deleted at open, not
// accumulated forever.
func TestOpenSweepsCompactionLeftovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable(testSchema())
	for i := 0; i < 30; i++ {
		tbl.Insert(Row{Int(int64(i)), Str("n"), Str("p"), Float(0), Bool(true)})
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Plant what a crash between build and manifest commit leaves: a
	// next-generation segment nothing references, and the staged WAL.
	orphanSeg := filepath.Join(segsDirFor(path), segFileName(99, 0))
	if err := os.WriteFile(orphanSeg, []byte("half-built segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	orphanWAL := compactTempPath(path)
	if err := os.WriteFile(orphanWAL, []byte("staged wal"), 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Health().RecoveredWithLoss {
		t.Fatal("orphan sweep misread as data loss")
	}
	for _, p := range []string{orphanSeg, orphanWAL} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("orphan %s survived reopen (err=%v)", filepath.Base(p), err)
		}
	}
	tbl2, _ := db2.Table("concepts")
	if tbl2.Len() != 30 {
		t.Fatalf("Len after sweep = %d", tbl2.Len())
	}
	// The swept generation number must not collide with future
	// compactions: the engine picks gen from the manifest, and a fresh
	// compact must succeed.
	if err := db2.Compact(); err != nil {
		t.Fatalf("compact after sweep: %v", err)
	}
}

// TestReopenAfterCommitBeforeWALSwap rebuilds the state a crash between
// a compaction's manifest rename and its WAL swap leaves on disk: the
// committed manifest and runs beside the old, untruncated WAL, whose
// rows the new run already holds. Replay must skip those keys — from
// the run footers alone, reading no block — so every reopen — the
// first, and the one after it — serves the same rows, reports no loss,
// stores no key twice, and reads each run block exactly once, for the
// index build.
func TestReopenAfterCommitBeforeWALSwap(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "swap.db")
			db, err := OpenSharded(path, shards)
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := db.CreateTable(attrSchema())
			if err != nil {
				t.Fatal(err)
			}
			if err := tbl.CreateIndex("attribute"); err != nil {
				t.Fatal(err)
			}
			fillAttrs(t, tbl, 40) // ids 1..120
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			var more []Row
			for id := int64(121); id <= 240; id++ {
				more = append(more, Row{Int(id), Int(id % 40), Str("pulse"), Str("x"), Float(float64(id))})
			}
			if err := tbl.InsertBatch(more); err != nil {
				t.Fatal(err)
			}
			want := collectRows(tbl)
			walPaths := make([]string, shards)
			oldWALs := make([][]byte, shards)
			for i, sh := range db.shards {
				walPaths[i] = sh.path
				if oldWALs[i], err = os.ReadFile(sh.path); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			for i, p := range walPaths {
				if err := os.WriteFile(p, oldWALs[i], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for open := 1; open <= 2; open++ {
				db, err := OpenSharded(path, shards)
				if err != nil {
					t.Fatalf("open %d: %v", open, err)
				}
				if h := db.Health(); h.RecoveredWithLoss {
					t.Fatalf("open %d: reported loss: %+v", open, h)
				}
				tbl, err := db.Table("extracted")
				if err != nil {
					t.Fatal(err)
				}
				blocks := 0
				for _, ts := range tbl.shards {
					for _, sg := range ts.segs {
						blocks += len(sg.blocks)
					}
				}
				if cs := db.BlockCacheStats(); cs.Hits+cs.Misses != int64(blocks) {
					t.Fatalf("open %d read %d run blocks, want %d: the index build's one walk, none for replay", open, cs.Hits+cs.Misses, blocks)
				}
				got := collectRows(tbl)
				if len(got) != len(want) || tbl.Len() != len(want) {
					t.Fatalf("open %d: scan %d rows, Len %d, want %d", open, len(got), tbl.Len(), len(want))
				}
				for i := range got {
					if !slices.Equal(got[i], want[i]) {
						t.Fatalf("open %d: row %d = %v, want %v", open, i, got[i], want[i])
					}
				}
				checkIndexConsistent(t, tbl)
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestFailureAfterManifestRename injects a failure into each directory
// sync a compaction's commit makes after its MANIFEST rename — the
// segments directory's, then the log's — for a minor and a major
// compaction, on a 1-shard file store and a 4-shard directory, each
// holding two runs and memtable rows. The compaction returns the error
// and latches every shard; reads still return every row; no descriptor
// leaks. A power cut may bring back either manifest, so no run file may
// go: a reopen serves every row again, healthy and consistent.
func TestFailureAfterManifestRename(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, mode := range []string{"minor", "major"} {
			for _, dir := range []string{"segments", "log"} {
				t.Run(fmt.Sprintf("shards=%d/%s/%s-dir", shards, mode, dir), func(t *testing.T) {
					testFailureAfterManifestRename(t, shards, mode == "major", dir == "segments")
				})
			}
		}
	}
}

func testFailureAfterManifestRename(t *testing.T, shards int, major, segsDir bool) {
	fdsAtStart := openFDs(t)
	path := filepath.Join(t.TempDir(), "fail.db")
	db, err := OpenSharded(path, shards)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(attrSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("attribute"); err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= 900; id += 300 {
		if id > 1 {
			if err := db.Flush(); err != nil { // two runs, then memtable rows
				t.Fatal(err)
			}
		}
		rows := make([]Row, 0, 300)
		for i := id; i < id+300; i++ {
			rows = append(rows, Row{Int(i), Int(i % 40), Str([]string{"pulse", "weight", "smoking"}[i%3]), Str("x"), Float(float64(i))})
		}
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
	}
	want := collectRows(tbl)
	verify := func(stage string) {
		t.Helper()
		got, _, err := tbl.Query(Query{})
		if err != nil {
			t.Fatalf("%s: scan: %v", stage, err)
		}
		if len(got) != len(want) || tbl.Len() != len(want) {
			t.Fatalf("%s: scan %d rows, Len %d, want %d", stage, len(got), tbl.Len(), len(want))
		}
		for i := range got {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("%s: row %d = %v, want %v", stage, i, got[i], want[i])
			}
		}
		checkIndexConsistent(t, tbl)
	}

	fdsBefore, segsBefore := openFDs(t), tbl.Stats().Segments
	injected := errors.New("injected directory sync failure")
	testHookSyncDir = func(dir string) error {
		if strings.HasSuffix(dir, ".segs") == segsDir {
			return injected
		}
		return nil
	}
	defer func() { testHookSyncDir = nil }()
	compact := db.Flush
	if major {
		compact = db.Compact
	}
	err = compact()
	testHookSyncDir = nil
	if !errors.Is(err, injected) {
		t.Fatalf("compaction error = %v, want the injected sync failure", err)
	}
	if h := db.Health(); !h.ReadOnly || len(h.FailedShards) != shards {
		t.Fatalf("Health = %+v, want every shard read-only", h)
	}
	verify("after the failure")
	// Descriptors follow the runs serving reads: the failed commit keeps
	// its new runs only if it swapped them in.
	if grew, runs := openFDs(t)-fdsBefore, tbl.Stats().Segments-segsBefore; grew > runs {
		t.Errorf("failed commit leaked fds: %d more open, %d more runs", grew, runs)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if after := openFDs(t); after > fdsAtStart {
		t.Errorf("fds after Close: %d, before open %d", after, fdsAtStart)
	}

	db, err = OpenSharded(path, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if h := db.Health(); !h.Ok() {
		t.Fatalf("reopen: Health = %s", h)
	}
	if tbl, err = db.Table("extracted"); err != nil {
		t.Fatal(err)
	}
	verify("after reopen")
}

// TestRowTriggerSurvivesReopen: the rows a reopen replays into the
// memtables count toward Backlog and the MemRows trigger, so a shard
// reopened with k logged rows reports Backlog k and compacts once
// MemRows-k more rows arrive.
func TestRowTriggerSurvivesReopen(t *testing.T) {
	const k, memRows = 70, 100
	path := filepath.Join(t.TempDir(), "trigger.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	next := int64(0)
	insert := func(n int) {
		t.Helper()
		rows := make([]Row, 0, n)
		for range n {
			rows = append(rows, Row{Int(next), Str("n"), Str("p"), Float(0), Bool(true)})
			next++
		}
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
	}
	insert(k)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = OpenShardedWithPolicy(path, 1, CompactionPolicy{MemRows: memRows})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if cs := db.CompactionStats(); cs.Backlog != k {
		t.Fatalf("reopened Backlog = %d, want the %d replayed rows", cs.Backlog, k)
	}
	if tbl, err = db.Table("concepts"); err != nil {
		t.Fatal(err)
	}
	insert(memRows - k - 1) // one row short: no wake token is posted
	if cs := db.CompactionStats(); cs.Backlog != memRows-1 || cs.MinorRuns+cs.MajorRuns != 0 {
		t.Fatalf("one row below the trigger: %+v, want Backlog %d and no compaction", cs, memRows-1)
	}
	insert(1)
	deadline := time.Now().Add(10 * time.Second)
	for db.CompactionStats().MinorRuns == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no compaction %d rows after a reopen with %d logged, MemRows %d: %+v", memRows-k, k, memRows, db.CompactionStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if cs := db.CompactionStats(); cs.Backlog != 0 || cs.RowsRewritten != memRows {
		t.Fatalf("after the trigger: %+v, want Backlog 0 and %d rows folded", cs, memRows)
	}
}

// TestBacklogKeepsResidue: the rows inserted while a compaction builds
// stay in the memtable, re-logged as residue, so they stay in Backlog:
// the commit subtracts the captured rows instead of zeroing the count.
// A reopen replays the residue and reports the same Backlog.
func TestBacklogKeepsResidue(t *testing.T) {
	path := filepath.Join(t.TempDir(), "backlog.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	row := func(id int64) Row { return Row{Int(id), Str("n"), Str("p"), Float(0), Bool(true)} }
	for i := int64(0); i < 10; i++ {
		if err := tbl.Insert(row(i)); err != nil {
			t.Fatal(err)
		}
	}
	hookDone := make(chan error, 1)
	testHookCompactBuild = func() {
		testHookCompactBuild = nil
		hookDone <- tbl.Insert(row(10))
	}
	defer func() { testHookCompactBuild = nil }()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := <-hookDone; err != nil {
		t.Fatalf("mid-build insert: %v", err)
	}
	if cs := db.CompactionStats(); cs.Backlog != 1 || cs.RowsRewritten != 10 {
		t.Fatalf("after the flush: %+v, want Backlog 1 (the residue) and 10 rows folded", cs)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(path); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if cs := db.CompactionStats(); cs.Backlog != 1 {
		t.Fatalf("after a reopen: Backlog %d, want the 1 replayed residue row", cs.Backlog)
	}
}
