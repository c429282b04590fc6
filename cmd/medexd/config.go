package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/classify"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/store"
)

// config is the validated daemon configuration. Every limit here is a
// robustness bound: queue depth caps ingest memory, max-body/max-batch
// cap a single request, the timeouts cut off stalled clients and bound
// the shutdown drain.
type config struct {
	Addr     string
	DBPath   string
	Shards   int
	Strategy core.Strategy
	Workers  int

	// Backend names the classification backend for the smoking
	// classifier; TrainCorpus is the labeled corpus it trains on at
	// startup ("" = no classifier, ingested records carry no smoking
	// attribute).
	Backend     string
	TrainCorpus string

	QueueDepth int
	MaxGroup   int
	MaxBody    int64
	MaxBatch   int

	CompactMemRows int
	CompactFanout  int

	BlockCacheMB int

	IngestTimeout time.Duration
	QueryTimeout  time.Duration
	DrainTimeout  time.Duration
}

// parseFlags parses the medexd flag set into a config. It uses
// ContinueOnError so tests (and main) get the error back instead of an
// os.Exit from inside the flag package.
func parseFlags(args []string, errOut io.Writer) (config, error) {
	var cfg config
	var strategyName string
	fs := flag.NewFlagSet("medexd", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&cfg.Addr, "addr", "127.0.0.1:8606", "listen address (host:port; port 0 picks a free port)")
	fs.StringVar(&cfg.DBPath, "db", "", "database path the daemon owns (required)")
	fs.IntVar(&cfg.Shards, "shards", 0, "store shard count for a fresh database (0 = auto-detect an existing layout, single shard when fresh)")
	fs.StringVar(&strategyName, "strategy", "link-grammar", "number association strategy: link-grammar | pattern-only | proximity-only")
	fs.IntVar(&cfg.Workers, "workers", 0, "extraction workers per ingest request (0 = GOMAXPROCS)")
	fs.StringVar(&cfg.Backend, "backend", "id3", "classification backend for the smoking classifier: id3 | gini | vector")
	fs.StringVar(&cfg.TrainCorpus, "train-corpus", "", "labeled corpus directory (gencorpus layout) to train the smoking classifier on at startup (empty = no classifier)")
	fs.IntVar(&cfg.QueueDepth, "queue", 64, "bounded ingest queue depth; a full queue rejects with 429")
	fs.IntVar(&cfg.MaxGroup, "max-group", 16, "max batches folded into one group commit (one fsync)")
	fs.Int64Var(&cfg.MaxBody, "max-body", 8<<20, "max ingest request body in bytes (larger requests get 413)")
	fs.IntVar(&cfg.MaxBatch, "max-batch", 512, "max records per ingest request (larger batches get 413)")
	fs.IntVar(&cfg.CompactMemRows, "compact-mem-rows", store.DefaultCompactMemRows, "rows logged on a shard since its last compaction before the background compactor wakes")
	fs.IntVar(&cfg.CompactFanout, "compact-fanout", store.DefaultCompactFanout, "segment runs per table before a background compaction escalates from a minor fold to a major merge")
	fs.IntVar(&cfg.BlockCacheMB, "block-cache-mb", int(store.DefaultBlockCacheBytes>>20), "decoded-block cache capacity in MiB, shared across shards (0 disables caching)")
	fs.DurationVar(&cfg.IngestTimeout, "ingest-timeout", 30*time.Second, "per-request bound on reading, extracting and persisting one ingest batch; also the server read timeout that cuts off stalled clients")
	fs.DurationVar(&cfg.QueryTimeout, "query-timeout", 10*time.Second, "per-request bound on query endpoints")
	fs.DurationVar(&cfg.DrainTimeout, "drain-timeout", 15*time.Second, "graceful-shutdown deadline for draining in-flight requests and the ingest queue")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("medexd: unexpected argument %q", fs.Arg(0))
	}
	strategy, err := core.ParseStrategy(strategyName)
	if err != nil {
		return cfg, fmt.Errorf("medexd: %w", err)
	}
	cfg.Strategy = strategy
	return cfg, cfg.validate()
}

// validate fail-fast checks every flag before the daemon opens the
// database or binds the listener. Each error is one actionable line.
func (c config) validate() error {
	shardCheck := func() error {
		if c.Shards == 0 {
			return nil // auto-detect
		}
		return cliutil.Shards("-shards", c.Shards)
	}
	intBody := func() error {
		if c.MaxBody <= 0 {
			return fmt.Errorf("-max-body must be positive (got %d)", c.MaxBody)
		}
		return nil
	}
	trainCorpus := func() error {
		if c.TrainCorpus == "" {
			return nil // no startup training
		}
		return cliutil.ExistingDir("-train-corpus", c.TrainCorpus)
	}
	if err := cliutil.FirstErr(
		cliutil.DBPath("-db", c.DBPath),
		shardCheck(),
		cliutil.NonNegative("-workers", c.Workers),
		cliutil.OneOf("-backend", c.Backend, classify.Names()...),
		trainCorpus(),
		cliutil.Positive("-queue", c.QueueDepth),
		cliutil.Positive("-max-group", c.MaxGroup),
		intBody(),
		cliutil.Positive("-max-batch", c.MaxBatch),
		cliutil.Positive("-compact-mem-rows", c.CompactMemRows),
		cliutil.Positive("-compact-fanout", c.CompactFanout),
		cliutil.NonNegative("-block-cache-mb", c.BlockCacheMB),
		cliutil.PositiveDuration("-ingest-timeout", c.IngestTimeout),
		cliutil.PositiveDuration("-query-timeout", c.QueryTimeout),
		cliutil.PositiveDuration("-drain-timeout", c.DrainTimeout),
	); err != nil {
		return fmt.Errorf("medexd: %w", err)
	}
	return nil
}

// compactionPolicy maps the -compact-* flags to the store's policy.
func (c config) compactionPolicy() store.CompactionPolicy {
	return store.CompactionPolicy{
		MemRows: c.CompactMemRows,
		Fanout:  c.CompactFanout,
	}
}
