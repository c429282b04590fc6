package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestHealthOk: a fresh database reports the zero health value.
func TestHealthOk(t *testing.T) {
	db := OpenMemorySharded(4)
	defer db.Close()
	h := db.Health()
	if !h.Ok() {
		t.Fatalf("fresh engine unhealthy: %+v", h)
	}
	if h.String() != "ok" {
		t.Fatalf("healthy String() = %q, want ok", h.String())
	}
}

// TestHealthFailedCompactionLatch: a shard whose log was lost to a
// failed compaction swap must be visible in Health and Stats before any
// write is attempted — callers should not have to discover degradation
// via the first failed append.
func TestHealthFailedCompactionLatch(t *testing.T) {
	db := OpenMemorySharded(3)
	defer db.Close()
	tbl, err := db.CreateTable(Schema{
		Name:    "t",
		Columns: []Column{{Name: "id", Type: TInt}, {Name: "v", Type: TString}},
		Primary: 0,
	})
	if err != nil {
		t.Fatal(err)
	}

	latched := errors.New("store: compact rename: injected (shard closed; reopen to recover)")
	db.shards[1].failed = latched

	h := db.Health()
	if !h.ReadOnly {
		t.Fatal("Health.ReadOnly false with a latched shard")
	}
	if len(h.FailedShards) != 1 || h.FailedShards[0] != 1 {
		t.Fatalf("FailedShards = %v, want [1]", h.FailedShards)
	}
	if h.Reason != latched.Error() {
		t.Fatalf("Reason = %q, want %q", h.Reason, latched.Error())
	}
	if h.Ok() {
		t.Fatal("Ok() true for a read-only engine")
	}
	if !strings.Contains(h.String(), "read-only (1 shard(s) refusing writes") {
		t.Fatalf("String() = %q, want read-only report", h.String())
	}

	if st := tbl.Stats(); st.FailedShards != 1 {
		t.Fatalf("Stats.FailedShards = %d, want 1", st.FailedShards)
	}

	// The latch still refuses writes that route to the dead shard.
	var refused bool
	for i := int64(0); i < 64 && !refused; i++ {
		err := tbl.Insert(Row{Int(i), Str("x")})
		if errors.Is(err, latched) {
			refused = true
		} else if err != nil {
			t.Fatalf("unexpected insert error: %v", err)
		}
	}
	if !refused {
		t.Fatal("no insert was refused by the latched shard")
	}
}

// TestHealthWALFailureLatch: a failed WAL write or fsync latches its
// shard. After a failed fsync the kernel may have dropped the unwritten
// pages, so a later fsync that succeeds proves nothing: Health reports
// the shard read-only, Sync keeps failing, and inserts routed to it get
// the latched error while the other shard keeps taking writes.
func TestHealthWALFailureLatch(t *testing.T) {
	for _, trigger := range []string{"sync", "write"} {
		t.Run(trigger, func(t *testing.T) {
			db, err := OpenSharded(filepath.Join(t.TempDir(), "db"), 2)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close() // fails on the closed log; nothing to check
			tbl, err := db.CreateTable(Schema{
				Name:    "t",
				Columns: []Column{{Name: "id", Type: TInt}, {Name: "v", Type: TString}},
				Primary: 0,
			})
			if err != nil {
				t.Fatal(err)
			}
			pkOn := func(shard int, from int64) int64 {
				for shardIndex(encodeKey(Int(from)), 2) != shard {
					from++
				}
				return from
			}
			db.shards[1].log.f.Close() // every later write or fsync of shard 1 fails
			switch trigger {
			case "sync":
				err = db.Sync()
			case "write":
				err = tbl.Insert(Row{Int(pkOn(1, 0)), Str("x")})
			}
			if err == nil {
				t.Fatalf("%s on a closed log succeeded", trigger)
			}
			h := db.Health()
			if !h.ReadOnly || len(h.FailedShards) != 1 || h.FailedShards[0] != 1 {
				t.Fatalf("Health = %+v, want shard 1 read-only", h)
			}
			if st := tbl.Stats(); st.FailedShards != 1 {
				t.Fatalf("Stats.FailedShards = %d, want 1", st.FailedShards)
			}
			latched := db.shards[1].failedErr()
			if err := db.Sync(); !errors.Is(err, latched) {
				t.Fatalf("Sync after the failure = %v, want the latched %v", err, latched)
			}
			if err := tbl.Insert(Row{Int(pkOn(1, 1000)), Str("x")}); !errors.Is(err, latched) {
				t.Fatalf("insert into the latched shard = %v, want %v", err, latched)
			}
			if err := tbl.Insert(Row{Int(pkOn(0, 0)), Str("x")}); err != nil {
				t.Fatalf("insert into the healthy shard: %v", err)
			}
		})
	}
}

// TestHealthRecoveredWithLoss: a torn WAL tail surfaces as
// RecoveredWithLoss with a dropped-record count, and clears on a clean
// reopen after compaction rewrote the log.
func TestHealthRecoveredWithLoss(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.wal")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(Schema{
		Name:    "t",
		Columns: []Column{{Name: "id", Type: TInt}, {Name: "v", Type: TString}},
		Primary: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := tbl.Insert(Row{Int(i), Str("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: cut one byte off the file.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-1); err != nil {
		t.Fatal(err)
	}

	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	h := db.Health()
	if !h.RecoveredWithLoss || h.DroppedRecords == 0 {
		t.Fatalf("after torn tail: %+v, want RecoveredWithLoss with drops", h)
	}
	if h.ReadOnly {
		t.Fatalf("torn tail must not make the engine read-only: %+v", h)
	}
	if !strings.Contains(h.String(), "recovered with loss") {
		t.Fatalf("String() = %q, want recovered-with-loss report", h.String())
	}
}
