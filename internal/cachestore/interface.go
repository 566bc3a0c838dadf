package cachestore

import (
	"io"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/lsh"
)

// Interface is the store contract the engine, the peer service, and
// the facade program against. Three implementations exist:
//
//   - Store: one entry table under one RWMutex over one index (which
//     has its own; lookups take only the index's read lock) — the right
//     shape for a single-stream device cache.
//   - ShardedStore: N lock-striped Store shards routed by LSH
//     signature prefix — the serving-scale shape, where concurrent
//     streams insert into disjoint shards instead of one mutex.
//   - SerializedStore: a Store behind a single exclusive mutex — the
//     pre-sharding worst case, kept as the throughput-benchmark
//     baseline.
//
// All implementations are safe for concurrent use and share the
// snapshot wire format, so Export/Import round-trips across them.
//
// An Entry is a value assembled on the way out, never a view of store
// memory: its bookkeeping comes from the store's entry table and its
// vector is a fresh copy — read back from the index arena, which holds
// the only copy of a live entry's vector. Reads that need no vector
// (Label, Quarantined) therefore copy nothing.
//
// Three reads every in-tree store also offers are deliberately not part
// of Interface, so a wrapper that embeds Interface without knowing them
// hides them and callers fall back instead of silently forwarding:
// reach them through the package functions NearestWithinInto, Answer
// and QuarantinedEntries.
type Interface interface {
	// Insert stores a recognition result and returns its ID.
	Insert(vec feature.Vector, label string, confidence float64, source string, savedCost time.Duration) (lsh.ID, error)
	// Get returns a copy of the entry, vector included, and whether it
	// is live.
	Get(id lsh.ID) (Entry, bool)
	// Touch records a cache hit on id.
	Touch(id lsh.ID)
	// Label resolves id to its label if live (shape of lsh.Vote's
	// resolver).
	Label(id lsh.ID) (string, bool)
	// Nearest returns up to k neighbors of q among live entries.
	Nearest(q feature.Vector, k int) ([]lsh.Neighbor, error)
	// NearestInto is Nearest appending into dst's backing array.
	NearestInto(q feature.Vector, k int, dst []lsh.Neighbor) ([]lsh.Neighbor, error)
	// Remove deletes id.
	Remove(id lsh.ID)
	// Confirm records a shadow-audit agreement on id.
	Confirm(id lsh.ID)
	// Refute records a shadow-audit disagreement on id; reports
	// whether this call quarantined the entry.
	Refute(id lsh.ID) bool
	// Parole records the outcome of re-verifying a quarantined entry.
	Parole(id lsh.ID, ok bool) ParoleOutcome
	// Quarantined reports whether id is currently quarantined.
	Quarantined(id lsh.ID) bool
	// QuarantineStats returns quarantine lifecycle counters.
	QuarantineStats() QuarantineStats
	// Len returns the live entry count.
	Len() int
	// Evictions and Expiries count removals by cause.
	Evictions() int
	Expiries() int
	// Stats returns an occupancy/churn summary.
	Stats() StoreStats
	// Snapshot returns copies of all live entries, vectors included.
	Snapshot() []Entry
	// Export writes a checksummed snapshot; Import reads one back.
	Export(w io.Writer) error
	Import(r io.Reader) (int, error)
}

var (
	_ Interface = (*Store)(nil)
	_ Interface = (*ShardedStore)(nil)
	_ Interface = (*SerializedStore)(nil)
)
