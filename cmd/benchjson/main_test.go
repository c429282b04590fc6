package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: repro/internal/store
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkIngestSharded/shards=1         	   10000	    208409 ns/op	    307088 rows/s
BenchmarkIngestSharded/shards=4         	   10000	    105966 ns/op	    615462 rows/s
BenchmarkQueryFanout/shards=4           	    2049	    586998 ns/op
BenchmarkStoreInsert-8   	  500000	      2643 ns/op	     512 B/op	       9 allocs/op
PASS
ok  	repro/internal/store	4.960s
`

func TestParseBenchOutput(t *testing.T) {
	report, err := parse(strings.NewReader(sampleBenchOutput), nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Goos != "linux" || report.Goarch != "amd64" || !strings.Contains(report.CPU, "Xeon") {
		t.Errorf("context lines not captured: %+v", report)
	}
	if len(report.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(report.Benchmarks))
	}
	first := report.Benchmarks[0]
	if first.Name != "BenchmarkIngestSharded/shards=1" || first.Runs != 10000 {
		t.Errorf("first result wrong: %+v", first)
	}
	if first.Pkg != "repro/internal/store" {
		t.Errorf("pkg not attached: %q", first.Pkg)
	}
	if first.Metrics["ns/op"] != 208409 || first.Metrics["rows/s"] != 307088 {
		t.Errorf("metrics wrong: %v", first.Metrics)
	}
	mem := report.Benchmarks[3]
	if mem.Metrics["B/op"] != 512 || mem.Metrics["allocs/op"] != 9 {
		t.Errorf("-benchmem metrics wrong: %v", mem.Metrics)
	}
}

func TestRunWritesJSONAndEchoes(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_test.json")
	var echoed strings.Builder
	if err := run([]string{"-out", out}, strings.NewReader(sampleBenchOutput), &echoed); err != nil {
		t.Fatal(err)
	}
	// Pass-through: the human-readable log is intact.
	if echoed.String() != sampleBenchOutput {
		t.Errorf("stdin not echoed verbatim:\n%s", echoed.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report Report
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(report.Benchmarks) != 4 {
		t.Errorf("JSON holds %d benchmarks, want 4", len(report.Benchmarks))
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	if err := run(nil, strings.NewReader("no benchmarks here\n"), &strings.Builder{}); err == nil {
		t.Error("benchmark-free input accepted")
	}
}

func TestParseResultLineRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX",
		"BenchmarkX 12",
		"BenchmarkX twelve 34 ns/op",
		"BenchmarkX 12 fast ns/op",
	} {
		if _, ok := parseResultLine(line); ok {
			t.Errorf("malformed line parsed: %q", line)
		}
	}
}

// repeatedBenchOutput is `go test -count 3` output: each name three
// times in a row, plus one benchmark of another package run once.
const repeatedBenchOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkLinkParse-2         	   45758	     25792 ns/op	    2540 B/op	      11 allocs/op
BenchmarkLinkParse-2         	   49150	     27200 ns/op	    2536 B/op	      11 allocs/op
BenchmarkLinkParse-2         	   43687	     26126 ns/op	    2540 B/op	      11 allocs/op
BenchmarkPipelineProcess-2   	    6032	    215113 ns/op
BenchmarkPipelineProcess-2   	    6180	    195227 ns/op
BenchmarkPipelineProcess-2   	    6242	    234031 ns/op
PASS
ok  	repro	9.1s
pkg: repro/internal/store
BenchmarkLinkParse-2         	     100	       500 ns/op
PASS
ok  	repro/internal/store	1.0s
`

// TestFoldRepeatedSamples pins both output shapes: repeated names fold
// into one result per package with median, min, max, sample count and
// total runs; a name seen once keeps the single-sample form, with no
// samples, min or max keys in its JSON.
func TestFoldRepeatedSamples(t *testing.T) {
	report, err := parse(strings.NewReader(repeatedBenchOutput), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3 (two folded, one single): %+v", len(report.Benchmarks), report.Benchmarks)
	}
	lp := report.Benchmarks[0]
	if lp.Name != "BenchmarkLinkParse-2" || lp.Pkg != "repro" || lp.Samples != 3 || lp.Runs != 45758+49150+43687 {
		t.Errorf("folded result header wrong: %+v", lp)
	}
	if lp.Metrics["ns/op"] != 26126 || lp.Min["ns/op"] != 25792 || lp.Max["ns/op"] != 27200 {
		t.Errorf("ns/op median/min/max wrong: %v %v %v", lp.Metrics, lp.Min, lp.Max)
	}
	if lp.Metrics["B/op"] != 2540 || lp.Min["B/op"] != 2536 || lp.Metrics["allocs/op"] != 11 {
		t.Errorf("-benchmem medians wrong: %v %v", lp.Metrics, lp.Min)
	}
	if pp := report.Benchmarks[1]; pp.Samples != 3 || pp.Metrics["ns/op"] != 215113 {
		t.Errorf("second folded result wrong: %+v", pp)
	}
	single := report.Benchmarks[2]
	if single.Pkg != "repro/internal/store" || single.Samples != 0 || single.Min != nil || single.Max != nil ||
		single.Runs != 100 || single.Metrics["ns/op"] != 500 {
		t.Errorf("same name in another package must stay a single sample: %+v", single)
	}
	raw, err := json.Marshal(single)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{`"samples"`, `"min"`, `"max"`} {
		if strings.Contains(string(raw), k) {
			t.Errorf("single-sample JSON has %s: %s", k, raw)
		}
	}

	// An even sample count takes the mean of the middle two.
	even, err := parse(strings.NewReader("BenchmarkX 1 10 ns/op\nBenchmarkX 1 40 ns/op\nBenchmarkX 1 20 ns/op\nBenchmarkX 1 30 ns/op\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := even.Benchmarks[0].Metrics["ns/op"]; got != 25 {
		t.Errorf("median of 10,20,30,40 = %v, want 25", got)
	}
}
