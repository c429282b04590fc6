// Command medbench is the repository's benchmark. It builds cmd/medexd
// from the checkout, starts it on a fresh copy of a seeded 24,000-patient
// warehouse, drives one workload over loopback HTTP, checks every
// answer, and prints the metrics BENCHMARK.json declares:
//
//	go run -C medbench . --workload ingest|chart|cohort --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line carries the end-to-end metrics, measured
// with tracing off. With --trace 1 it carries the per-layer metrics: the
// same daemon phase gives the daemon's counters, and an in-process
// traced replay over another fresh copy of the warehouse gives each
// layer's time and pass counts. Build outputs, run directories and span
// files live under .bench_build/ in the checkout.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	var opts options
	var trace int
	flag.StringVar(&opts.workload, "workload", "", "workload to run: ingest | chart | cohort")
	flag.Int64Var(&opts.seed, "seed", 1, "seed every input derives from")
	flag.IntVar(&opts.seconds, "seconds", 20, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.Parse()
	opts.trace = trace == 1
	if !slices.Contains(workloadNames, opts.workload) || opts.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "medbench: want --workload %v, --seconds >= 1 and --trace 0|1\n", workloadNames)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	root, err := findRoot()
	if err == nil {
		err = checkDeclared(filepath.Join(root, "BENCHMARK.json"))
	}
	var res result
	if err == nil {
		res, err = run(ctx, root, opts, fullSizes, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "medbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "medbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run is one benchmark run in the checkout at root. Human-readable
// lines go to out; the returned result is the machine-readable summary.
func run(ctx context.Context, root string, opts options, sz sizes, out io.Writer) (result, error) {
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	work := filepath.Join(root, ".bench_build")
	bin := filepath.Join(work, "bin", "medexd")
	if err := buildDaemon(root, bin); err != nil {
		return result{}, err
	}
	runDir := filepath.Join(work, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.RemoveAll(runDir); err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(runDir)

	fmt.Fprintf(out, "workload %s seed %d seconds %d trace %v gomaxprocs benchmark=%d daemon=%d\n",
		opts.workload, opts.seed, opts.seconds, opts.trace, runtime.GOMAXPROCS(0), nproc)
	t0 := time.Now()
	in, err := prepare(runDir, opts.seed, sz)
	if err != nil {
		return result{}, err
	}
	var w load
	switch opts.workload {
	case "ingest":
		w, err = newIngestLoad(in)
	case "chart":
		w = newChartLoad(in)
	case "cohort":
		w = newCohortLoad(in)
	}
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "warehouse %s note_bytes=%d prepared_in=%.1fs\n", in.fingerprint, in.preloadNoteBytes, time.Since(t0).Seconds())

	ph, err := runPhase(ctx, bin, runDir, in, w, time.Duration(opts.seconds)*time.Second, out)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: ph.rec.failed == 0, Attempted: ph.rec.attempted, Failed: ph.rec.failed}
	values := ph.endToEnd
	list := endToEnd
	if opts.trace {
		tr, err := traceRun(ctx, in, w, opts, runDir, work, ph, out)
		if err != nil {
			return result{}, err
		}
		res.Attempted += tr.attempted
		res.Failed += int64(len(tr.mismatches))
		res.Correct = res.Correct && len(tr.mismatches) == 0
		for _, m := range tr.mismatches {
			fmt.Fprintln(out, "trace mismatch:", m)
		}
		values, list = tr.values, perLayer
	}
	for _, n := range ph.rec.notes {
		fmt.Fprintln(out, "failure:", n)
	}
	if res.Metrics, err = report(list, values); err != nil {
		return result{}, err
	}
	for _, m := range list {
		fmt.Fprintf(out, "metric %-48s %14.6g %s\n", m.Name, values[m.Name], m.Unit)
	}
	return res, nil
}

// phaseResult is what the daemon phase measured.
type phaseResult struct {
	rec      *recorder
	endToEnd map[string]float64
	daemon   map[string]float64 // per-layer values read from the daemon
}

// signalSettle is how long a set-up daemon runs past its first 200
// from /readyz before it is stopped. medexd starts serving a moment
// before it installs its SIGTERM handler, so a SIGTERM sent at once
// can kill it by the signal's default action instead of draining it.
const signalSettle = 250 * time.Millisecond

// runPhase starts the daemon sz.Setups times on fresh copies of the
// warehouse (setup_s is the median), then drives the workload on the
// last one: a warm-up, the measured phase with /v1/stats and /proc read
// only at its boundaries, a SIGTERM drain, and the after-drain checks.
func runPhase(ctx context.Context, bin, runDir string, in *inputs, w load, measure time.Duration, out io.Writer) (*phaseResult, error) {
	var (
		setups []float64
		d      *daemon
		dbDir  string
	)
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	logPath := filepath.Join(runDir, "medexd.log")
	for k := 0; k < in.sz.Setups; k++ {
		dbDir = filepath.Join(runDir, "db-"+strconv.Itoa(k))
		if err := copyStore(in.pristine, dbDir); err != nil {
			return nil, err
		}
		dk, took, err := startDaemon(ctx, bin, daemonFlags(dbDir, in.trainDir, in.sz.Shards), logPath)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if k == in.sz.Setups-1 {
			d = dk
			break
		}
		time.Sleep(signalSettle)
		if err := dk.stop(); err != nil {
			return nil, fmt.Errorf("set-up daemon %d did not drain cleanly: %w", k, err)
		}
		if err := os.RemoveAll(dbDir); err != nil {
			return nil, err
		}
	}
	_, rssReady, err := procMem(d.pid())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "setup_s samples %v\n", setups)

	start := time.Now()
	rec := &recorder{warmEnd: start.Add(in.sz.Warmup)}
	rec.end = rec.warmEnd.Add(measure)
	rec.hardEnd = rec.end.Add(measure / 2)
	if _, ok := w.(*chartLoad); ok {
		rec.window = chartWindow
	}
	type snap struct {
		st        stats
		cpu, self time.Duration
		err       error
	}
	take := func() snap {
		var s snap
		var e1, e2, e3 error
		s.st, e1 = d.stats()
		s.cpu, e2 = procCPU(d.pid())
		s.self, e3 = procCPU(0)
		s.err = errors.Join(e1, e2, e3)
		return s
	}
	first := make(chan snap, 1)
	go func() {
		time.Sleep(time.Until(rec.warmEnd))
		first <- take()
	}()
	w.drive(ctx, d.base, rec)
	s0 := <-first
	s1 := take()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := errors.Join(s0.err, s1.err); err != nil {
		return nil, err
	}
	hwm, _, err := procMem(d.pid())
	if err != nil {
		return nil, err
	}
	stopErr := d.stop()
	d = nil
	if stopErr != nil {
		rec.fail(fmt.Sprintf("daemon did not drain cleanly: %v", stopErr))
	}
	disk, err := diskBytes(dbDir)
	if err != nil {
		return nil, err
	}
	rows, err := tableRows(dbDir)
	if err != nil {
		return nil, err
	}
	ackedRows, ackedBytes, measBytes := w.acked()
	if want := in.preloadRows + ackedRows; rows != want {
		rec.fail(fmt.Sprintf("after drain the table holds %d rows, want %d preloaded + %d acknowledged", rows, in.preloadRows, ackedRows))
	}
	w.verify(rec)

	opsPerS, p50, p90, err := rec.figures()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "measured %d ops in %.2fs, each a latency sample (%d attempted, %d failed)\n",
		len(rec.samples), rec.lastDone.Sub(rec.warmEnd).Seconds(), rec.attempted, rec.failed)
	if rec.window > 0 {
		fmt.Fprintf(out, "ops_per_s and latencies are medians over %d windows of %v\n", rec.end.Sub(rec.warmEnd)/rec.window, rec.window)
	}
	ops := float64(len(rec.samples))
	ds, de := s0.st, s1.st
	hits, misses := float64(de.Cache.Hits-ds.Cache.Hits), float64(de.Cache.Misses-ds.Cache.Misses)
	fmt.Fprintf(out, "daemon: cache hit ratio %.3f, %.1f misses/op, cpu %.1f ms/op, groups %d, compactions %d minor %d major\n",
		ratio(hits, hits+misses), ratio(misses, ops), ratio(float64(s1.cpu-s0.cpu)/float64(time.Millisecond), ops),
		de.Ingest.Groups-ds.Ingest.Groups, de.Compaction.MinorRuns-ds.Compaction.MinorRuns, de.Compaction.MajorRuns-ds.Compaction.MajorRuns)
	return &phaseResult{
		rec: rec,
		endToEnd: map[string]float64{
			"setup_s":                   median(setups),
			"ops_per_s":                 opsPerS,
			"latency_p50_ms":            p50,
			"latency_p90_ms":            p90,
			"rss_peak_mb":               hwm,
			"disk_bytes_per_input_byte": ratio(float64(disk), float64(in.preloadNoteBytes+ackedBytes)),
		},
		daemon: map[string]float64{
			"core.groups_per_batch":                         ratio(float64(de.Ingest.Groups-ds.Ingest.Groups), float64(de.Ingest.Batches-ds.Ingest.Batches)),
			"core.rejected_429":                             float64(de.Ingest.Rejected - ds.Ingest.Rejected),
			"store.compaction.minor_runs":                   float64(de.Compaction.MinorRuns - ds.Compaction.MinorRuns),
			"store.compaction.major_runs":                   float64(de.Compaction.MajorRuns - ds.Compaction.MajorRuns),
			"store.compaction.rewrite_bytes_per_input_byte": ratio(float64(de.Compaction.BytesRewritten-ds.Compaction.BytesRewritten), float64(measBytes)),
			"store.compaction.backlog_end":                  float64(de.Compaction.Backlog),
			"medexd.rss_after_ready_mb":                     rssReady,
			"store.bloom_skips_per_query":                   ratio(float64(de.Cache.BloomSkips-ds.Cache.BloomSkips), ops),
			"store.cache_hit_ratio":                         ratio(hits, hits+misses),
			"store.cache_misses_per_query":                  ratio(misses, ops),
			"store.cache_evictions_per_query":               ratio(float64(de.Cache.Evictions-ds.Cache.Evictions), ops),
			"medexd.response_bytes_per_op":                  ratio(float64(rec.respBytes), ops),
			"medexd.cpu_ms_per_op":                          ratio(float64(s1.cpu-s0.cpu)/float64(time.Millisecond), ops),
			"driver.cpu_ms_per_op":                          ratio(float64(s1.self-s0.self)/float64(time.Millisecond), ops),
			"driver.send_gap_ms_max":                        float64(rec.gapMax) / float64(time.Millisecond),
		},
	}, nil
}

// tableRows reopens a drained store and counts the extracted table.
func tableRows(dir string) (int64, error) {
	db, err := store.OpenSharded(dir, 0)
	if err != nil {
		return 0, fmt.Errorf("reopening drained store: %w", err)
	}
	defer db.Close()
	tbl, err := db.Table(core.ResultTable)
	if err != nil {
		return 0, err
	}
	return int64(tbl.Len()), nil
}

// traceResult is the traced run's per-layer values.
type traceResult struct {
	values     map[string]float64
	attempted  int64
	mismatches []string
}

// traceRun replays the workload in process with a span per layer call,
// for half as long as the daemon phase measured, then tours the
// request types the workload does not send, so every layer is measured
// in every run: ingest adds chart reads and one rotation of cohort
// questions, chart adds four ingest batches and the cohort rotation,
// cohort adds four ingest batches and chart reads.
func traceRun(ctx context.Context, in *inputs, w load, opts options, runDir, work string, ph *phaseResult, out io.Writer) (*traceResult, error) {
	r := &tracedRun{ctx: ctx, in: in, t: newTracer(), probe: map[*batch][]touched{}}
	defer r.close()
	if err := r.setup(runDir, 3); err != nil {
		return nil, err
	}
	budget := time.Duration(opts.seconds) * time.Second / 2
	if err := w.replay(r, time.Now().Add(budget)); err != nil {
		return nil, err
	}
	if opts.workload != "ingest" {
		extra, err := in.ingestBatches(4 * ingestPerRequest)
		if err != nil {
			return nil, err
		}
		for i := range extra {
			if err := r.ingest(&extra[i], false); err != nil {
				return nil, err
			}
		}
	}
	if opts.workload != "chart" {
		pick := chartPicker(in, subSeed(in.seed, famRequests)+2)
		for i := 0; i < 200; i++ {
			if err := r.chart(int64(pick()), false); err != nil {
				return nil, err
			}
		}
	}
	if opts.workload != "cohort" {
		for _, q := range cohortQuestions {
			if err := r.ask(q, false); err != nil {
				return nil, err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	spans := filepath.Join(work, "traces", fmt.Sprintf("%s-seed%d.jsonl", opts.workload, opts.seed))
	if err := r.t.write(spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "traced %d requests, %d notes, %d queries; spans in %s\n", r.t.req, r.notes, r.queries, spans)

	ls := r.t.layers()
	notes := float64(r.notes)
	ms, us := time.Millisecond, time.Microsecond
	values := map[string]float64{
		"records.decode_us_per_note":        ls.perNote("records.decode", r.notes),
		"textproc.analyze_us_per_note":      ls.perNote("textproc.analyze", r.notes),
		"textproc.sentences_us_per_note":    ls.perNote("textproc.sentences", r.notes),
		"textproc.tokenize_passes_per_note": ratio(float64(r.pass.tokenizes), notes),
		"pos.tag_us_per_note":               ls.perNote("pos.tag", r.notes),
		"pos.tag_passes_per_note":           ratio(float64(r.pass.tags), notes),
		"linkgram.parse_us_per_note":        ls.perNote("linkgram.parse", r.notes),
		"linkgram.parse_passes_per_note":    ratio(float64(r.pass.parses), notes),
		"linkgram.no_linkage_ratio":         ratio(float64(r.noLinkage), float64(r.parseAttempts)),
		"core.numeric_us_per_note":          ls.perNote("core.numeric", r.notes),
		"core.terms_us_per_note":            ls.perNote("core.terms", r.notes),
		"classify.predict_us_per_note":      ls.perNote("classify.predict", r.notes),
		"core.rows_per_note":                ratio(float64(r.persistRows), notes),
		"core.persist_us_per_batch":         ls.perCall("core.persist", us),
		"store.sync_ms_per_call":            ls.perCall("store.sync", ms),
		"store.wal_bytes_per_row":           ratio(float64(r.walBytes), float64(r.persistRows)),
		"store.open_s":                      median(ls.durs["store.open"]) / 1000,
		"ontology.new_ms":                   median(ls.durs["ontology.new"]),
		"core.new_system_ms":                median(ls.durs["core.new_system"]),
		"core.train_smoking_ms":             median(ls.durs["core.train_smoking"]),
		"core.open_warehouse_ms":            median(ls.durs["core.open_warehouse"]),
		"store.lookup_us":                   ls.perCall("store.lookup", us),
		"store.query_us_per_cond":           ls.perCall("store.query", us),
		"core.intersect_us":                 ls.perCall("core.intersect", us),
		"store.rows_examined_per_result":    ratio(float64(r.examined), float64(r.results)),
		"store.index_probes_per_query":      ratio(float64(r.probes), float64(r.queries)),
		"store.segments_per_query":          ratio(float64(r.segments), float64(r.queries)),
		"medexd.http_overhead_us_per_op":    ph.endToEnd["latency_p50_ms"]*1000 - median(r.own),
		"trace.accounted_ratio":             ls.accounted,
		"trace.overhead_ratio":              ratio(float64(r.tracedT), float64(r.untracedT)),
	}
	for k, v := range ph.daemon {
		values[k] = v
	}
	return &traceResult{values: values, attempted: int64(ls.requests), mismatches: r.mismatches}, nil
}
