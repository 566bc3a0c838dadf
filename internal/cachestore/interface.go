package cachestore

import (
	"io"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/lsh"
)

// Interface is the store contract the engine, the peer service, and
// the facade program against. Store is its one implementation: one
// entry table under one RWMutex over one index (which has its own;
// lookups take only the index's read lock), for a single device and for
// a whole pool of sessions alike. It is safe for concurrent use.
//
// An Entry is a value assembled on the way out, never a view of store
// memory: its bookkeeping comes from the store's entry table and its
// vector is a fresh copy — read back from the index arena, which holds
// the only copy of a live entry's vector. Reads that need no vector
// (Label, Answer) therefore copy nothing.
//
// The radius search is deliberately not part of Interface: reach it
// through the package function NearestWithinInto, which falls back to
// NearestInto cut at the radius. The end-to-end harness under
// benchmarks/ wraps the store in a type that embeds Interface and
// overrides NearestInto to time it and capture what the kNN vote saw.
// Were the radius search in Interface, it would be promoted past that
// override: the capture would stay empty and every traced run would
// report shadow mismatches. It joins Interface once the harness reads
// the engine's frame record instead (ROADMAP 1(A+B)).
type Interface interface {
	// Insert stores a recognition result and returns its ID.
	Insert(vec feature.Vector, label string, confidence float64, source string, savedCost time.Duration) (lsh.ID, error)
	// Touch records a cache hit on id.
	Touch(id lsh.ID)
	// Label resolves id to its label if live (shape of lsh.Vote's
	// resolver).
	Label(id lsh.ID) (string, bool)
	// Answer resolves id to the label and confidence it is served with,
	// if live.
	Answer(id lsh.ID) (label string, confidence float64, ok bool)
	// Nearest returns up to k neighbors of q among live entries.
	Nearest(q feature.Vector, k int) ([]lsh.Neighbor, error)
	// NearestInto is Nearest appending into dst's backing array.
	NearestInto(q feature.Vector, k int, dst []lsh.Neighbor) ([]lsh.Neighbor, error)
	// Remove deletes id.
	Remove(id lsh.ID)
	// Confirm records a shadow-audit agreement on id.
	Confirm(id lsh.ID)
	// Refute records a shadow-audit disagreement on id.
	Refute(id lsh.ID)
	// Parole records the outcome of re-verifying a quarantined entry.
	Parole(id lsh.ID, ok bool)
	// QuarantinedEntries returns copies of the quarantined entries only,
	// vectors included.
	QuarantinedEntries() []Entry
	// QuarantineStats returns quarantine lifecycle counters.
	QuarantineStats() QuarantineStats
	// Len returns the live entry count.
	Len() int
	// Evictions counts entries capacity pressure removed.
	Evictions() int
	// Stats returns an occupancy/churn summary.
	Stats() StoreStats
	// Export writes a checksummed snapshot; Import reads one back.
	Export(w io.Writer) error
	Import(r io.Reader) (int, error)
}

var _ Interface = (*Store)(nil)
