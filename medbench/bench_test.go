package main

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// miniSizes has the full benchmark's shape at a size a test can run:
// 4 shards of 4 runs, a hot set, the same daemon flags.
var miniSizes = sizes{
	Patients:    1200,
	SourceNotes: 40,
	Chunks:      4,
	Shards:      4,
	TrainNotes:  50,
	IngestPool:  64,
	Setups:      2,
	Warmup:      300 * time.Millisecond,
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	for _, tc := range []struct {
		p    float64
		n    int
		ok   bool
		want float64
	}{
		{0.9, 100, true, 90},
		{0.9, 99, false, 0},
		{0.5, 20, true, 10},
		{0.5, 19, false, 0},
		{0.9, 0, false, 0},
	} {
		got, err := percentile(xs(tc.n), tc.p)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("percentile(%d samples, %g) = %v, %v; want %v, ok=%v", tc.n, tc.p, got, err, tc.want, tc.ok)
		}
	}
}

// TestWindowedFigures checks that a windowed recorder reports the
// median window's rate and percentiles, so one slow window moves
// nothing, and refuses a window too thin for its p90.
func TestWindowedFigures(t *testing.T) {
	warm := time.Unix(0, 0)
	rec := &recorder{warmEnd: warm, end: warm.Add(3 * time.Second), window: time.Second}
	add := func(win, n int, ms float64) {
		for i := 0; i < n; i++ {
			at := time.Duration(win)*time.Second + time.Duration(i)*time.Second/time.Duration(n)
			rec.samples = append(rec.samples, sample{at: at, ms: ms})
		}
	}
	add(0, 200, 1)
	add(1, 1000, 5) // a window the host spent elsewhere
	add(2, 300, 2)
	ops, p50, p90, err := rec.figures()
	if err != nil || ops != 300 || p50 != 2 || p90 != 2 {
		t.Errorf("figures = %v, %v, %v, %v; want 300, 2, 2, nil", ops, p50, p90, err)
	}
	add(3, 50, 9) // sent past the planned end: outside every window
	if ops, _, _, err := rec.figures(); err != nil || ops != 300 {
		t.Errorf("figures with late samples = %v, %v; want 300, nil", ops, err)
	}
	rec.samples = rec.samples[:200]
	add(1, 1000, 5)
	add(2, 50, 2)
	if _, _, _, err := rec.figures(); err == nil {
		t.Error("a window of 50 samples gave a p90")
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	if err := checkDeclared(filepath.Join("..", "BENCHMARK.json")); err != nil {
		t.Fatal(err)
	}
}

func TestReportRefusesMissingAndUndeclaredMetrics(t *testing.T) {
	values := map[string]float64{}
	for _, m := range endToEnd {
		values[m.Name] = 1
	}
	if _, err := report(endToEnd, values); err != nil {
		t.Fatalf("complete set refused: %v", err)
	}
	values["extra"] = 1
	if _, err := report(endToEnd, values); err == nil {
		t.Error("undeclared metric accepted")
	}
	delete(values, "extra")
	delete(values, "setup_s")
	if _, err := report(endToEnd, values); err == nil {
		t.Error("missing metric accepted")
	}
}

// TestTracerSelfTimes checks the accounting: a span's self time is its
// duration minus its children's, and a request's accounted share is
// the part of it inside layer spans.
func TestTracerSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "request.x", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 50},
		{Name: "b", Parent: 1, Start: 20, End: 30},
		{Name: "a", Parent: 0, Start: 60, End: 90},
		{Name: "setup", Parent: -1, Start: 200, End: 300},
	}}
	ls := tr.layers()
	if ls.self["a"] != 60 || ls.self["b"] != 10 || ls.self["request.x"] != 30 {
		t.Errorf("self times %v", ls.self)
	}
	if ls.requests != 1 || ls.accounted != 0.7 {
		t.Errorf("requests %d accounted %v, want 1 and 0.7", ls.requests, ls.accounted)
	}
}

// TestWarehouseIsSeeded builds the warehouse twice from one seed: the
// row count, per-attribute counts and segments per shard must agree,
// and another seed must build another warehouse.
func TestWarehouseIsSeeded(t *testing.T) {
	build := func(seed int64) string {
		in, err := prepare(t.TempDir(), seed, miniSizes)
		if err != nil {
			t.Fatal(err)
		}
		return in.fingerprint
	}
	a, b, other := build(7), build(7), build(8)
	if a != b {
		t.Fatalf("one seed built two warehouses:\n%s\n%s", a, b)
	}
	if a == other {
		t.Errorf("seeds 7 and 8 built the same warehouse: %s", a)
	}
	for i := 0; i < miniSizes.Shards; i++ {
		if want := "shard" + string(rune('0'+i)) + "_segments=4"; !strings.Contains(a, want) {
			t.Errorf("fingerprint %s lacks %s", a, want)
		}
	}
}

// TestWorkloadsEndToEnd runs every workload against the real daemon on
// a miniature warehouse, untraced and traced, and wants zero failed
// operations and every check passing.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs medexd")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			var out strings.Builder
			res, err := run(context.Background(), root, options{workload: wl, seed: 3, seconds: 2, trace: trace}, miniSizes, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", wl, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(res.Metrics), len(want))
			}
		}
	}
}
