package store

import "errors"

// ErrBadQuery reports a malformed predicate (unknown operator).
var ErrBadQuery = errors.New("store: malformed query predicate")

// The query layer answers predicate queries over one table, choosing a
// secondary-index access path when one applies and falling back to a
// primary scan otherwise. It is the read half of the warehouse the paper
// motivates: extraction fills the table, Query serves the questions.
// On a partitioned table the same plan runs on every shard concurrently
// and the per-shard results merge into one deterministic order.

// Op is a predicate comparison operator.
type Op uint8

// Comparison operators. Ranges are expressed as conjunctions, e.g.
// Gt + Le on the same column.
const (
	OpEq Op = iota + 1
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return "?"
}

// Pred is one column predicate.
type Pred struct {
	Col string
	Op  Op
	V   Value
}

// Eq, Lt, Le, Gt and Ge construct predicates.
func Eq(col string, v Value) Pred { return Pred{Col: col, Op: OpEq, V: v} }
func Lt(col string, v Value) Pred { return Pred{Col: col, Op: OpLt, V: v} }
func Le(col string, v Value) Pred { return Pred{Col: col, Op: OpLe, V: v} }
func Gt(col string, v Value) Pred { return Pred{Col: col, Op: OpGt, V: v} }
func Ge(col string, v Value) Pred { return Pred{Col: col, Op: OpGe, V: v} }

// Query is a conjunction of predicates over one table.
type Query struct {
	Preds []Pred
}

// QueryStats reports how a query executed, so callers (and tests) can
// verify the planner's choice: UsedIndex with FullScan == false means no
// row outside the chosen index entries was touched. For a fan-out query
// the per-shard stats are summed (probes, rows examined) and Shards
// counts the partitions examined.
type QueryStats struct {
	UsedIndex    bool   // candidates came from a secondary index
	IndexCol     string // the index column, when UsedIndex
	Covered      bool   // the index covers every column: answered from its postings, reading no block
	IndexProbes  int    // postings (distinct indexed values) visited; 0 for an absent value
	RowsExamined int    // candidate rows fetched and tested
	FullScan     bool   // fell back to scanning the primary index
	Shards       int    // shards examined (1 on a single-shard engine)
	Segments     int    // segment files consulted (scans and index-entry resolves)
	BlocksPruned int    // segment blocks skipped via zone maps
	CacheHits    int    // blocks served from the shared decoded-block cache
	CacheMisses  int    // blocks read from disk (and cached for next time)
}

// Plan renders the access path for logs: "index-only(attribute)" for a
// covering index, "index(attribute)" for another, or "scan".
func (s QueryStats) Plan() string {
	switch {
	case s.Covered:
		return "index-only(" + s.IndexCol + ")"
	case s.UsedIndex:
		return "index(" + s.IndexCol + ")"
	}
	return "scan"
}

// Query returns the rows satisfying every predicate, in deterministic
// order (ascending indexed value then primary key on the index path,
// ascending primary key on the scan path), along with execution stats.
//
// Planning: the first indexed column carrying an equality predicate is
// chosen, else the first indexed column carrying a range predicate;
// every predicate on that column folds into one bounded index walk, and
// the other predicates filter the rows it visits. A covering index
// (see CreateIndex) builds those rows from its postings and reads no
// block. With no indexed column constrained, the primary index is
// scanned. Every shard holds the same secondary indexes, so all shards
// pick the same plan; the fan-out runs them concurrently and merges the
// sorted per-shard results.
//
// Queries run entirely under the shards' read locks, so any number can
// overlap each other and a live ingest.
func (t *Table) Query(q Query) ([]Row, QueryStats, error) {
	cis := make([]int, len(q.Preds))
	for i, p := range q.Preds {
		ci := t.schema.colIndex(p.Col)
		if ci < 0 {
			return nil, QueryStats{}, &ColumnError{Table: t.schema.Name, Col: p.Col}
		}
		if p.V.Type != t.schema.Columns[ci].Type {
			return nil, QueryStats{}, ErrTypeMism
		}
		if p.Op < OpEq || p.Op > OpGe {
			return nil, QueryStats{}, ErrBadQuery
		}
		cis[i] = ci
	}

	// Fan out: the same plan on every shard, shard 0 on this goroutine.
	res := make([]shardResult, len(t.shards))
	fanOut(len(t.shards), func(i int) {
		r := &res[i]
		r.rows, r.stats, r.err = t.shards[i].query(q, cis)
	})
	var stats QueryStats
	var err error
	parts := make([][]Row, len(res))
	for i, r := range res {
		parts[i] = r.rows
		err = errors.Join(err, r.err)
		st := r.stats
		stats.UsedIndex = stats.UsedIndex || st.UsedIndex
		stats.Covered = stats.Covered || st.Covered
		stats.FullScan = stats.FullScan || st.FullScan
		if stats.IndexCol == "" {
			stats.IndexCol = st.IndexCol
		}
		stats.IndexProbes += st.IndexProbes
		stats.RowsExamined += st.RowsExamined
		stats.Segments += st.Segments
		stats.BlocksPruned += st.BlocksPruned
		stats.CacheHits += st.CacheHits
		stats.CacheMisses += st.CacheMisses
	}
	stats.Shards = len(t.shards)
	if err != nil {
		return nil, QueryStats{Shards: len(t.shards)}, err
	}
	// Each part is already in the plan's order; merge restores the
	// global order: (indexed value, primary key) on the index path,
	// primary key alone on the scan path.
	less := t.lessByPK()
	if stats.UsedIndex {
		less = t.lessByColPK(t.schema.colIndex(stats.IndexCol))
	}
	return kwayMerge(parts, less), stats, nil
}

// shardResult is one shard's answer to a fanned-out query.
type shardResult struct {
	rows  []Row
	stats QueryStats
	err   error
}

// query runs one shard's slice of the plan. cis are the pre-resolved
// column indexes of q.Preds (validated by the router). The index walk
// runs under the shard's read lock; the scan path pins a view under it
// and then iterates with no lock held, so a long scan never blocks this
// shard's writers.
func (ts *tableShard) query(q Query, cis []int) (out []Row, stats QueryStats, err error) {
	ts.mu.RLock()

	// rs accumulates the cache hits/misses and zone-map pruning of
	// whatever access path runs; fold them into the returned stats on
	// every exit.
	var rs readStats
	defer func() {
		stats.CacheHits = rs.cacheHits
		stats.CacheMisses = rs.cacheMisses
	}()
	// Index walk: every predicate on the chosen column tightens [lo, hi),
	// so none of them needs re-checking per row; matches tests the rest.
	// Each posting visited is one probe: a covering index answers from
	// the posting alone; any other resolves its run-resident entries in
	// one batched segment walk (keys are sorted, so each touched block
	// is decoded once).
	if pick := ts.indexPick(q.Preds); pick >= 0 {
		defer ts.mu.RUnlock()
		col, ci := q.Preds[pick].Col, cis[pick]
		ix := ts.secondary[col]
		lo, hi := bounds(q.Preds, cis, ci)
		stats.UsedIndex, stats.IndexCol, stats.Covered = true, col, ix.covered
		keep := func(row Row) bool {
			stats.RowsExamined++
			return matches(q.Preds, cis, ci, row)
		}
		var walkErr error
		segReads := false
		ix.tree.AscendRange(lo, hi, func(sk string, v interface{}) bool {
			stats.IndexProbes++
			pl := v.(*postingList)
			segReads = segReads || !ix.covered && len(pl.mem) < pl.n
			out, walkErr = ts.postingRows(ix, sk, pl, &rs, keep, out)
			return walkErr == nil
		})
		if walkErr != nil {
			return nil, stats, walkErr
		}
		if segReads {
			stats.Segments = len(ts.segs)
		}
		return out, stats, nil
	}

	// Fallback: a scan of a pinned view. Predicates on the primary-key
	// column tighten the scan to [lo, hi) key bounds, which the zone
	// maps turn into skipped segment blocks.
	lo, hi := bounds(q.Preds, cis, ts.schema.Primary)
	ss := ts.captureLocked()
	ts.mu.RUnlock()
	defer ss.release()
	stats.FullScan = true
	stats.Segments = len(ss.segs)
	err = ss.iterate(lo, hi, &rs, func(_ string, row Row) bool {
		stats.RowsExamined++
		if matches(q.Preds, cis, -1, row) {
			out = append(out, row)
		}
		return true
	})
	stats.BlocksPruned = rs.blocksPruned
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// indexPick returns the position of the predicate whose column an
// index walk serves — the first on an indexed column with an equality,
// else the first on an indexed column — or -1 when no predicate is on
// an indexed column.
func (ts *tableShard) indexPick(preds []Pred) int {
	pick := -1
	for i, p := range preds {
		if _, indexed := ts.secondary[p.Col]; indexed && (pick < 0 || p.Op == OpEq && preds[pick].Op != OpEq) {
			pick = i
		}
	}
	return pick
}

// bounds folds the predicates on column ci into [lo, hi) encoded-key
// bounds ("" = unbounded).
func bounds(preds []Pred, cis []int, ci int) (lo, hi string) {
	for i, p := range preds {
		if cis[i] == ci {
			lo, hi = narrowBounds(lo, hi, p)
		}
	}
	return lo, hi
}

// narrowBounds tightens [lo, hi) encoded-key bounds ("" = unbounded) by
// one predicate. "" is below every encoded key, so the larger lower
// bound always wins. Exclusive bounds use the key-successor trick:
// appending a zero byte to an encoded key yields the smallest strictly
// greater key.
func narrowBounds(lo, hi string, p Pred) (string, string) {
	var plo, phi string
	switch p.Op {
	case OpEq: // [k, k+0x00): the key is a prefix of its successor
		phi = encodeKey(p.V) + "\x00"
		plo = phi[:len(phi)-1]
	case OpGe:
		plo = encodeKey(p.V)
	case OpGt:
		plo = encodeKey(p.V) + "\x00"
	case OpLt:
		phi = encodeKey(p.V)
	case OpLe:
		phi = encodeKey(p.V) + "\x00"
	}
	lo = max(lo, plo)
	if phi != "" && (hi == "" || phi < hi) {
		hi = phi
	}
	return lo, hi
}

// matches tests every predicate not on column skip (-1 skips none).
func matches(preds []Pred, cis []int, skip int, row Row) bool {
	for i, p := range preds {
		if cis[i] != skip && !predHolds(p.Op, cmpValues(row[cis[i]], p.V)) {
			return false
		}
	}
	return true
}

// cmpValues orders two same-typed values: -1, 0 or 1.
func cmpValues(a, b Value) int {
	switch a.Type {
	case TInt:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
	case TFloat:
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		}
	case TString:
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		}
	case TBool:
		switch {
		case !a.B && b.B:
			return -1
		case a.B && !b.B:
			return 1
		}
	}
	return 0
}

// predHolds translates a comparison result into the operator's outcome.
func predHolds(op Op, cmp int) bool {
	switch op {
	case OpEq:
		return cmp == 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	}
	return false
}

// ColumnError reports a predicate on a column the table does not have.
type ColumnError struct {
	Table, Col string
}

func (e *ColumnError) Error() string {
	return "store: table " + e.Table + " has no column " + e.Col
}
