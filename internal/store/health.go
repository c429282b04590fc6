package store

import (
	"fmt"
	"strings"
)

// Health is an engine's degradation report. The zero value means fully
// healthy: every shard accepts writes and recovery lost nothing.
type Health struct {
	// ReadOnly reports that at least one shard latched a write
	// failure: a WAL write, flush or fsync failed, or a failed
	// compaction swap lost the durable log. The shard (and so the
	// engine) refuses writes until the database is reopened, but reads
	// keep serving the state in memory.
	ReadOnly bool
	// FailedShards lists the shard ids refusing writes, in order.
	FailedShards []int
	// Reason is the first failed shard's latched error, "" when none.
	Reason string
	// RecoveredWithLoss reports that open truncated a corrupt WAL tail
	// or fell back to WAL-only recovery after an unreadable segment
	// manifest on some shard. Writes still work; data from the torn
	// tail is gone.
	RecoveredWithLoss bool
	// DroppedRecords counts WAL records dropped during recovery,
	// summed over shards.
	DroppedRecords int
}

// Ok reports whether the engine is fully healthy — writable everywhere
// and recovered without loss.
func (h Health) Ok() bool {
	return !h.ReadOnly && !h.RecoveredWithLoss
}

// String renders the health state for logs and plan lines.
func (h Health) String() string {
	if h.Ok() {
		return "ok"
	}
	var parts []string
	if h.ReadOnly {
		parts = append(parts, fmt.Sprintf("read-only (%d shard(s) refusing writes: %s)",
			len(h.FailedShards), h.Reason))
	}
	if h.RecoveredWithLoss {
		parts = append(parts, fmt.Sprintf("recovered with loss (%d record(s) dropped)",
			h.DroppedRecords))
	}
	return strings.Join(parts, "; ")
}
