// Command benchjson converts `go test -bench` output into a
// machine-readable JSON report, so the performance trajectory of the
// repo is tracked as one artifact per PR instead of scraped from CI
// logs.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -out BENCH_4.json
//
// Input lines pass through to stdout unchanged (the human-readable log
// stays intact); every benchmark result line is additionally parsed
// into {name, runs, metrics{unit: value}} with the goos/goarch/pkg/cpu
// context lines attached. Output of `go test -count N` repeats each
// name; the samples of one name within a package fold into one result
// whose metrics are the per-unit medians, with the minima, maxima and
// sample count beside them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Report is the JSON document benchjson emits.
type Report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// Result is one benchmark. Metrics maps unit → value, e.g. "ns/op" →
// 123456, "rows/s" → 307088. A benchmark that ran once is its result
// line as printed. One that ran Samples > 1 times has the per-unit
// median in Metrics, the extremes in Min and Max, and the iterations of
// all samples in Runs.
type Result struct {
	Name    string             `json:"name"`
	Pkg     string             `json:"pkg,omitempty"`
	Runs    int64              `json:"runs"`
	Samples int                `json:"samples,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
	Min     map[string]float64 `json:"min,omitempty"`
	Max     map[string]float64 `json:"max,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ExitOnError)
	outPath := fs.String("out", "", "JSON output file (empty = stdout only, after the pass-through)")
	fs.Parse(args)
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (benchmark output is read from stdin)", fs.Arg(0))
	}

	report, err := parse(in, out)
	if err != nil {
		return err
	}
	if len(report.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark result lines found on stdin")
	}
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *outPath == "" {
		_, err := out.Write(enc)
		return err
	}
	return os.WriteFile(*outPath, enc, 0o644)
}

// parse reads `go test -bench` output, echoing every line to echo and
// collecting parsed results.
func parse(in io.Reader, echo io.Writer) (*Report, error) {
	report := &Report{}
	pkg := ""
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if echo != nil {
			fmt.Fprintln(echo, line)
		}
		switch {
		case strings.HasPrefix(line, "goos: "):
			report.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			report.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			report.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			if res, ok := parseResultLine(line); ok {
				res.Pkg = pkg
				report.Benchmarks = append(report.Benchmarks, res)
			}
		}
	}
	report.Benchmarks = foldSamples(report.Benchmarks)
	return report, sc.Err()
}

// foldSamples folds the repeated results of each (package, name) into
// one, in order of first appearance; a name seen once is left as is.
func foldSamples(results []Result) []Result {
	type key struct{ pkg, name string }
	var order []key
	samples := make(map[key][]Result)
	for _, r := range results {
		k := key{r.Pkg, r.Name}
		if _, seen := samples[k]; !seen {
			order = append(order, k)
		}
		samples[k] = append(samples[k], r)
	}
	out := make([]Result, 0, len(order))
	for _, k := range order {
		rs := samples[k]
		if len(rs) == 1 {
			out = append(out, rs[0])
			continue
		}
		f := Result{Name: k.name, Pkg: k.pkg, Samples: len(rs),
			Metrics: make(map[string]float64), Min: make(map[string]float64), Max: make(map[string]float64)}
		vals := make(map[string][]float64)
		for _, r := range rs {
			f.Runs += r.Runs
			for unit, v := range r.Metrics {
				vals[unit] = append(vals[unit], v)
			}
		}
		for unit, vs := range vals {
			slices.Sort(vs)
			f.Min[unit], f.Max[unit] = vs[0], vs[len(vs)-1]
			if mid := len(vs) / 2; len(vs)%2 == 1 {
				f.Metrics[unit] = vs[mid]
			} else {
				f.Metrics[unit] = (vs[mid-1] + vs[mid]) / 2
			}
		}
		out = append(out, f)
	}
	return out
}

// parseResultLine parses one benchmark result line:
//
//	BenchmarkX/sub=4-8   100   123456 ns/op   42 B/op   3 allocs/op
//
// i.e. name, run count, then (value, unit) pairs. Lines that do not
// match (e.g. "BenchmarkX" alone when -v interleaves) are skipped.
func parseResultLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Result{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: fields[0], Runs: runs, Metrics: make(map[string]float64)}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		res.Metrics[fields[i+1]] = v
	}
	return res, true
}
