package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestGenSeedCorpora(t *testing.T) {
	if os.Getenv("GEN_FUZZ_SEEDS") == "" {
		t.Skip("set GEN_FUZZ_SEEDS=1 to regenerate")
	}
	wal := validWALBytes(t)
	walDir := filepath.Join("testdata", "fuzz", "FuzzWALReplay")
	codecDir := filepath.Join("testdata", "fuzz", "FuzzRowCodec")
	for _, d := range []string{walDir, codecDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	torn := wal[:len(wal)-3]
	flip := append([]byte(nil), wal...)
	flip[len(flip)/2] ^= 0xff
	walSeeds := map[string][]byte{
		"valid-log":      wal,
		"torn-tail":      torn,
		"bitflip":        flip,
		"empty":          {},
		"junk-frame":     {0, 0, 0, 1, 0, 0, 0, 0, 42},
		"keys-backwards": backwardKeysWALBytes(t),
	}
	for name, data := range walSeeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(walDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	shardWAL := validShardWALBytes(t, 1)
	shardDir := filepath.Join("testdata", "fuzz", "FuzzShardWALReplay")
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	shardTorn := shardWAL[:len(shardWAL)-3]
	shardFlip := append([]byte(nil), shardWAL...)
	shardFlip[len(shardFlip)/2] ^= 0xff
	shardSeeds := map[string][]byte{
		"valid-shard-log": shardWAL,
		"torn-tail":       shardTorn,
		"bitflip":         shardFlip,
		"empty":           {},
		"junk-frame":      {0, 0, 0, 1, 0, 0, 0, 0, 42},
	}
	for name, data := range shardSeeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(shardDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	seg := validSegmentBytes(t)
	segDir := filepath.Join("testdata", "fuzz", "FuzzSegmentDecode")
	if err := os.MkdirAll(segDir, 0o755); err != nil {
		t.Fatal(err)
	}
	// valid-segment and the seeds derived from it are format-2 runs, the
	// format earlier versions wrote; legacy-f1 is the format-1 run the
	// writer produces today (the format predates the filter region).
	legacyF1 := seg
	seg = format2SegmentBytes(t, legacyF1)
	segTorn := seg[:len(seg)-3]
	segFlip := append([]byte(nil), seg...)
	segFlip[len(segFlip)/2] ^= 0xff
	segMeta := append([]byte(nil), seg...)
	segMeta[len(segMeta)-segTail2Len+2] ^= 0xff
	segFilter := append([]byte(nil), seg...)
	segFilter[segFilterOff(t, seg)] ^= 0xff
	segSeeds := map[string][]byte{
		"valid-segment":  seg,
		"torn-tail":      segTorn,
		"bitflip-body":   segFlip,
		"bitflip-meta":   segMeta,
		"bitflip-filter": segFilter,
		"legacy-f1":      legacyF1,
		"empty":          {},
		"magic-only":     []byte(segMagic),
	}
	for name, data := range segSeeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(segDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	codecSeeds := map[string]struct {
		data []byte
		n    int
	}{
		"full-row":   {encodeRow(nil, Row{Int(-7), Float(3.5), Str("pulse"), Bool(true)}), 4},
		"empty-str":  {encodeRow(nil, Row{Str(""), Int(0)}), 2},
		"bad-length": {[]byte{byte(TString), 0xff, 0xff, 0xff}, 1},
		"empty":      {[]byte{}, 1},
		"zero-type":  {[]byte{0}, 3},
	}
	for name, s := range codecSeeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nint(%d)\n", s.data, s.n)
		if err := os.WriteFile(filepath.Join(codecDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
