package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

// metric is one reported number, named and united exactly as
// BENCHMARK.json declares it.
type metric struct {
	Name string
	Unit string
}

// endToEnd is what a run prints with --trace 0: what a user of medexd
// sees, measured over loopback HTTP with tracing off.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"rss_peak_mb", "MiB"},
	{"disk_bytes_per_input_byte", "ratio"},
}

// perLayer is what a run prints with --trace 1. Times and pass counts
// come from the in-process traced run; daemon counters come from the
// /v1/stats and /proc differences across the measured phase.
var perLayer = []metric{
	// NLP front half, per note.
	{"records.decode_us_per_note", "us"},
	{"textproc.analyze_us_per_note", "us"},
	{"textproc.sentences_us_per_note", "us"},
	{"textproc.tokenize_passes_per_note", "count"},
	{"pos.tag_us_per_note", "us"},
	{"pos.tag_passes_per_note", "count"},
	{"linkgram.parse_us_per_note", "us"},
	{"linkgram.parse_passes_per_note", "count"},
	{"linkgram.no_linkage_ratio", "ratio"},
	{"core.numeric_us_per_note", "us"},
	{"core.terms_us_per_note", "us"},
	{"classify.predict_us_per_note", "us"},
	{"core.rows_per_note", "count"},
	// Write path.
	{"core.persist_us_per_batch", "us"},
	{"store.sync_ms_per_call", "ms"},
	{"core.groups_per_batch", "ratio"},
	{"store.wal_bytes_per_row", "B"},
	{"core.rejected_429", "count"},
	// Background compaction.
	{"store.compaction.minor_runs", "count"},
	{"store.compaction.major_runs", "count"},
	{"store.compaction.rewrite_bytes_per_input_byte", "ratio"},
	{"store.compaction.backlog_end", "rows"},
	// Setup.
	{"store.open_s", "s"},
	{"ontology.new_ms", "ms"},
	{"core.new_system_ms", "ms"},
	{"core.train_smoking_ms", "ms"},
	{"core.open_warehouse_ms", "ms"},
	{"medexd.rss_after_ready_mb", "MiB"},
	// Read path.
	{"store.lookup_us", "us"},
	{"store.query_us_per_cond", "us"},
	{"core.intersect_us", "us"},
	{"store.rows_examined_per_result", "ratio"},
	{"store.index_probes_per_query", "count"},
	{"store.segments_per_query", "count"},
	{"store.bloom_skips_per_query", "count"},
	{"store.cache_hit_ratio", "ratio"},
	{"store.cache_misses_per_query", "count"},
	{"store.cache_evictions_per_query", "count"},
	// The daemon around the layers.
	{"medexd.http_overhead_us_per_op", "us"},
	{"medexd.response_bytes_per_op", "B"},
	{"medexd.cpu_ms_per_op", "ms"},
	// Benchmark health.
	{"trace.accounted_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"driver.send_gap_ms_max", "ms"},
	{"driver.cpu_ms_per_op", "ms"},
}

// minTail is how many samples must lie beyond a percentile before it is
// reported: with fewer, "p90" is one or two outliers, not a percentile.
const minTail = 10

// percentile returns the p-quantile (0 < p < 1) of xs by nearest rank.
// It refuses when fewer than minTail samples lie beyond that rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	k := max(int(math.Ceil(p*float64(n))), 1) // 1-based rank
	if n-k < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p*100, n, max(n-k, 0), minTail)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[k-1], nil
}

// median is the 0.5 quantile without the tail requirement, for the
// small sample sets of the set-up and traced runs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio divides, reading 0 for an empty denominator (a counter the
// workload never moves) so the output never carries NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report builds the metrics object from the values a run measured,
// refusing a list that misses a declared metric or carries an
// undeclared one.
func report(list []metric, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(list))
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(values) != len(list) {
		for name := range values {
			if !slices.ContainsFunc(list, func(m metric) bool { return m.Name == name }) {
				return nil, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return out, nil
}

// declared is the subset of BENCHMARK.json this program must agree with.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// checkDeclared refuses to run when the metric names, units or workload
// names printed here drift from BENCHMARK.json.
func checkDeclared(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	if !slices.Equal(d.EndToEnd, endToEnd) {
		return fmt.Errorf("%s end_to_end metrics differ from the ones this benchmark prints", path)
	}
	if !slices.Equal(d.PerLayer, perLayer) {
		return fmt.Errorf("%s per_layer metrics differ from the ones this benchmark prints", path)
	}
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		return fmt.Errorf("%s workloads %v differ from %v", path, names, workloadNames)
	}
	return nil
}
