package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/records"
	"repro/internal/store"
)

func TestSystemEndToEnd(t *testing.T) {
	recs := records.Generate(records.DefaultGenOptions())
	sys, err := NewSystem(Config{Strategy: LinkGrammar, ResolveSynonyms: true})
	if err != nil {
		t.Fatal(err)
	}
	sys.TrainSmoking(recs)

	r := recs[0]
	ex := sys.Process(r.Text)
	if ex.Patient != r.ID {
		t.Errorf("patient id = %d, want %d", ex.Patient, r.ID)
	}
	if len(ex.Numeric) < 7 {
		t.Errorf("numeric attributes extracted = %d, want ≥7", len(ex.Numeric))
	}
	if len(ex.PreMedical)+len(ex.OtherMedical) == 0 {
		t.Error("no medical history extracted")
	}
	if r.Gold.Smoking != "" && ex.Smoking == "" {
		t.Error("smoking not classified")
	}
}

func TestPersistExtraction(t *testing.T) {
	recs := records.Generate(records.GenOptions{N: 3, Seed: 7})
	sys, err := NewSystem(Config{Strategy: LinkGrammar, ResolveSynonyms: true})
	if err != nil {
		t.Fatal(err)
	}
	db := store.OpenMemory()
	total := 0
	for _, r := range recs {
		n, err := PersistAll(db, []Extraction{sys.Process(r.Text)})
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	tbl, err := db.Table("extracted")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != total || total == 0 {
		t.Fatalf("persisted %d rows, table has %d", total, tbl.Len())
	}
	// Every row belongs to one of the three patients.
	tbl.Scan(func(row store.Row) bool {
		p := row[1].I
		if p < 1 || p > 3 {
			t.Errorf("row with patient %d", p)
		}
		return true
	})
}

// TestPersistAllAfterShardCrash reproduces the recovery scenario a
// torn shard WAL creates: ids become sparse (a middle slice of the id
// space is lost with one shard's tail), and a subsequent PersistAll
// must allocate past the surviving maximum instead of colliding with
// it.
func TestPersistAllAfterShardCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "extracted.db")
	db, err := store.OpenSharded(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	exs := []Extraction{
		{Patient: 1, Numeric: map[string]NumericValue{"pulse": {Attr: "pulse", Value: 80}, "weight": {Attr: "weight", Value: 70}}},
		{Patient: 2, Numeric: map[string]NumericValue{"pulse": {Attr: "pulse", Value: 90}, "weight": {Attr: "weight", Value: 80}}},
		{Patient: 3, Smoking: "never"},
	}
	if _, err := PersistAll(db, exs); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail off one shard's WAL: that shard loses rows whose
	// ids sit anywhere in the global sequence.
	wal := filepath.Join(path, "shard-001", "wal.log")
	st, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, st.Size()-20); err != nil {
		t.Fatal(err)
	}

	db, err = store.OpenSharded(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if !db.Health().RecoveredWithLoss {
		t.Fatal("fixture did not lose rows; test proves nothing")
	}
	// The recovered store must accept a fresh persistence pass without
	// duplicate-key collisions against the surviving sparse ids.
	if _, err := PersistAll(db, exs); err != nil {
		t.Fatalf("PersistAll after shard crash: %v", err)
	}
}

// TestPersistAllStopsOnCorruptRunTail flips a byte in the last block
// of one shard's newest segment run under a live store. MaxPK cannot
// read that shard's largest key, so PersistAll must fail with
// ErrCorrupt and write nothing rather than allocate ids over rows it
// could not read. Each shard is damaged in turn, so the run covers a
// damaged shard that does not hold the global maximum, whatever the
// key routing.
func TestPersistAllStopsOnCorruptRunTail(t *testing.T) {
	const shards = 4
	for victim := 0; victim < shards; victim++ {
		path := filepath.Join(t.TempDir(), "extracted.db")
		db, err := store.OpenSharded(path, shards)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			if _, err := PersistAll(db, syntheticExtractions(40)); err != nil {
				t.Fatal(err)
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		tbl, err := db.Table(ResultTable)
		if err != nil {
			t.Fatal(err)
		}
		before := tbl.Len()
		flipLastBlockByte(t, filepath.Join(path, fmt.Sprintf("shard-%03d", victim), "wal.log.segs"))
		_, err = PersistAll(db, syntheticExtractions(5))
		if !errors.Is(err, store.ErrCorrupt) {
			t.Errorf("shard %d damaged: PersistAll err = %v, want ErrCorrupt", victim, err)
		}
		if got := tbl.Len(); got != before {
			t.Errorf("shard %d damaged: Len = %d after the failed PersistAll, want %d", victim, got, before)
		}
		db.Close()
	}
}

// flipLastBlockByte corrupts the final byte of the last row block of
// the newest segment file in segsDir. The segment tail is indexLen and
// schemaLen (uint32 each), a CRC and an 8-byte magic; the metadata
// regions precede it and the blocks precede them.
func flipLastBlockByte(t *testing.T, segsDir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(segsDir, "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment in %s: %v", segsDir, err)
	}
	sort.Strings(segs) // generation-major names: the last is the newest run
	f, err := os.OpenFile(segs[len(segs)-1], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	const tailLen = 20
	tail := make([]byte, tailLen)
	if _, err := f.ReadAt(tail, st.Size()-tailLen); err != nil {
		t.Fatal(err)
	}
	if string(tail[12:]) != "MEDSEGF1" {
		t.Fatalf("unexpected segment tail %q", tail[12:])
	}
	meta := int64(binary.BigEndian.Uint32(tail[0:4])) + int64(binary.BigEndian.Uint32(tail[4:8]))
	off := st.Size() - tailLen - meta - 1
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func TestNewSystemDefaults(t *testing.T) {
	sys, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Terms.Ont == nil {
		t.Error("default ontology not loaded")
	}
	ex := sys.Process("Vitals:  Pulse of 80.\n")
	if ex.Numeric[records.AttrPulse].Value != 80 {
		t.Errorf("pulse = %v", ex.Numeric[records.AttrPulse])
	}
}
