package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/ontology"
	"repro/internal/store"
)

// runQuery answers a warehouse question from a persisted database:
// equality on an attribute value (-value), a numeric range (-min/-max),
// or a single patient's chart (-patient). Conditions resolve through the
// extracted table's secondary indexes; the final line reports the access
// path so an index regression is visible from the CLI.
func runQuery(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	dbPath := fs.String("db", "", "embedded database file written by medex extract (required)")
	attr := fs.String("attr", "", "attribute to filter on, e.g. pulse, smoking, medications")
	value := fs.String("value", "", "equality on the attribute value (concept terms resolve synonyms)")
	min := fs.Float64("min", 0, "lower bound on the numeric value (exclusive)")
	max := fs.Float64("max", 0, "upper bound on the numeric value (exclusive)")
	patient := fs.Int64("patient", 0, "print every attribute of one patient instead")
	rows := fs.Bool("rows", false, "print matching attribute rows, not just patient ids")
	shards := fs.Int("shards", 0, "expected shard count (0 = auto-detect the on-disk layout)")
	var extraConds []core.Cond
	fs.Func("cond", "additional condition (repeatable): attr=term, attr>n, attr<n or attr>n<m; patients must satisfy every condition", func(v string) error {
		c, err := parseCond(v)
		if err != nil {
			return err
		}
		extraConds = append(extraConds, c)
		return nil
	})
	fs.Parse(args)
	if fs.NArg() > 0 {
		return fmt.Errorf("query: unexpected argument %q", fs.Arg(0))
	}

	if *dbPath == "" {
		return fmt.Errorf("query: -db is required")
	}
	if *shards != 0 {
		if err := cliutil.Shards("-shards", *shards); err != nil {
			return fmt.Errorf("query: %w (0 auto-detects the layout)", err)
		}
	}
	// store.Open creates missing files; a query against a typo'd path
	// should error, not fabricate an empty database. Both layouts — a
	// single WAL file and a shard directory — pass the Stat.
	if _, err := os.Stat(*dbPath); err != nil {
		return fmt.Errorf("query: %w (run medex extract -db first)", err)
	}
	db, err := store.OpenSharded(*dbPath, *shards)
	if err != nil {
		return err
	}
	defer db.Close()
	health := db.Health()
	if !health.Ok() {
		fmt.Fprintf(out, "warning: engine health: %s\n", health)
	}
	w, err := core.OpenWarehouse(db, ontology.MustNew(ontology.Options{}))
	if err != nil {
		return err
	}

	if *patient != 0 {
		if len(extraConds) > 0 {
			return fmt.Errorf("query: -cond does not combine with -patient")
		}
		chart, err := w.Patient(*patient)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "patient %d (%d attribute rows)\n", *patient, len(chart))
		for _, r := range chart {
			fmt.Fprintf(out, "  %-34s %s\n", r.Attribute, r.Value)
		}
		return nil
	}

	if *attr == "" && len(extraConds) == 0 {
		return fmt.Errorf("query: need -attr (with -value and/or -min/-max), -cond or -patient")
	}
	var conds []core.Cond
	if *attr != "" {
		cond := core.Cond{Attr: *attr, Term: *value}
		var set []string
		fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
		for _, name := range set {
			switch name {
			case "min":
				cond.Min, cond.MinExcl = min, true
			case "max":
				cond.Max, cond.MaxExcl = max, true
			}
		}
		conds = append(conds, cond)
	}
	conds = append(conds, extraConds...)

	if *rows {
		if len(conds) > 1 {
			return fmt.Errorf("query: -cond does not combine with -rows (patient-id intersection only)")
		}
		matched, stats, err := w.Rows(conds[0])
		if err != nil {
			return err
		}
		for _, r := range matched {
			fmt.Fprintf(out, "patient %-6d %-26s %-20s %g\n", r.Patient, r.Attribute, r.Value, r.Numeric)
		}
		fmt.Fprintf(out, "%d rows; %s\n", len(matched), planLine(stats, health))
		return nil
	}

	patients, stats, err := w.Ask(conds...)
	if err != nil {
		return err
	}
	ids := make([]string, len(patients))
	for i, p := range patients {
		ids[i] = fmt.Sprintf("%d", p)
	}
	fmt.Fprintf(out, "patients (%d): %s\n", len(patients), strings.Join(ids, " "))
	fmt.Fprintln(out, planLine(stats, health))
	return nil
}

// planLine summarizes how the question executed, including the fan-out
// width so a sharded store is visible from the CLI, the segment
// read-path counters so a compacted store is too, and the engine health
// so answers computed over a degraded store carry the caveat inline.
func planLine(s core.QueryStats, h store.Health) string {
	line := fmt.Sprintf("plan: %d/%d conditions indexed, %d index probes, %d rows examined, %d full scans, %d shard(s)",
		s.IndexedConds, s.Conds, s.IndexProbes, s.RowsExamined, s.FullScans, s.Shards)
	if s.Segments > 0 {
		line += fmt.Sprintf(", %d segment(s), %d blocks pruned", s.Segments, s.BlocksPruned)
	}
	if s.BloomSkips > 0 || s.CacheHits > 0 || s.CacheMisses > 0 {
		line += fmt.Sprintf(", %d bloom skips, %d cache hits, %d cache misses",
			s.BloomSkips, s.CacheHits, s.CacheMisses)
	}
	if !h.Ok() {
		line += fmt.Sprintf(", health: %s", h)
	}
	return line
}

// parseCond parses one -cond value. Forms: "attr=term" (equality on the
// concept term, synonyms resolve), "attr>n" / "attr<n" (exclusive
// numeric bounds) and "attr>n<m" (both bounds).
func parseCond(s string) (core.Cond, error) {
	i := strings.IndexAny(s, "=<>")
	if i <= 0 {
		return core.Cond{}, fmt.Errorf("bad -cond %q (want attr=term, attr>n, attr<n or attr>n<m)", s)
	}
	c := core.Cond{Attr: s[:i]}
	rest := s[i:]
	if rest[0] == '=' {
		if len(rest) == 1 {
			return core.Cond{}, fmt.Errorf("bad -cond %q: empty term", s)
		}
		c.Term = rest[1:]
		return c, nil
	}
	for len(rest) > 0 {
		op := rest[0]
		rest = rest[1:]
		j := strings.IndexAny(rest, "<>")
		num := rest
		if j >= 0 {
			num, rest = rest[:j], rest[j:]
		} else {
			rest = ""
		}
		var v float64
		if _, err := fmt.Sscanf(num, "%g", &v); err != nil || num == "" {
			return core.Cond{}, fmt.Errorf("bad -cond %q: %q is not a number", s, num)
		}
		bound := v
		switch op {
		case '>':
			c.Min, c.MinExcl = &bound, true
		case '<':
			c.Max, c.MaxExcl = &bound, true
		}
	}
	return c, nil
}
