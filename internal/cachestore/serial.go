package cachestore

import (
	"io"
	"sync"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/lsh"
)

// SerializedStore funnels every operation — reads included — through
// one exclusive mutex in front of an inner Store. This is the
// pre-sharding architecture preserved as a measurable artifact: the
// throughput benchmark runs it as the baseline that the sharded store
// must beat, so the serving-scale claim is a number, not an assertion.
type SerializedStore struct {
	mu    sync.Mutex
	inner *Store
}

// NewSerialized wraps inner behind a single exclusive mutex.
func NewSerialized(inner *Store) *SerializedStore {
	return &SerializedStore{inner: inner}
}

// Insert stores a recognition result under the global mutex.
func (s *SerializedStore) Insert(vec feature.Vector, label string, confidence float64, source string, savedCost time.Duration) (lsh.ID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Insert(vec, label, confidence, source, savedCost)
}

// Get returns a snapshot of the entry under the global mutex.
func (s *SerializedStore) Get(id lsh.ID) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Get(id)
}

// Touch records a hit under the global mutex.
func (s *SerializedStore) Touch(id lsh.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inner.Touch(id)
}

// Label resolves id under the global mutex.
func (s *SerializedStore) Label(id lsh.ID) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Label(id)
}

// Nearest searches under the global mutex.
func (s *SerializedStore) Nearest(q feature.Vector, k int) ([]lsh.Neighbor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Nearest(q, k)
}

// NearestInto searches under the global mutex.
func (s *SerializedStore) NearestInto(q feature.Vector, k int, dst []lsh.Neighbor) ([]lsh.Neighbor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.NearestInto(q, k, dst)
}

// NearestWithinInto searches within radius under the global mutex.
func (s *SerializedStore) NearestWithinInto(q feature.Vector, k int, radius float64, dst []lsh.Neighbor) ([]lsh.Neighbor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.NearestWithinInto(q, k, radius, dst)
}

// Remove deletes id under the global mutex.
func (s *SerializedStore) Remove(id lsh.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inner.Remove(id)
}

// Confirm records an audit agreement under the global mutex.
func (s *SerializedStore) Confirm(id lsh.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inner.Confirm(id)
}

// Refute records an audit disagreement under the global mutex.
func (s *SerializedStore) Refute(id lsh.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Refute(id)
}

// Parole records a re-verification outcome under the global mutex.
func (s *SerializedStore) Parole(id lsh.ID, ok bool) ParoleOutcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Parole(id, ok)
}

// Answer resolves id's served label and confidence under the global
// mutex.
func (s *SerializedStore) Answer(id lsh.ID) (label string, confidence float64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Answer(id)
}

// QuarantinedEntries copies the quarantined entries under the global
// mutex.
func (s *SerializedStore) QuarantinedEntries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.QuarantinedEntries()
}

// Quarantined reports quarantine state under the global mutex.
func (s *SerializedStore) Quarantined(id lsh.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Quarantined(id)
}

// QuarantineStats summarizes quarantine activity under the global
// mutex.
func (s *SerializedStore) QuarantineStats() QuarantineStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.QuarantineStats()
}

// Len returns the live entry count under the global mutex.
func (s *SerializedStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Len()
}

// Evictions returns capacity evictions under the global mutex.
func (s *SerializedStore) Evictions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Evictions()
}

// Expiries returns TTL expiries under the global mutex.
func (s *SerializedStore) Expiries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Expiries()
}

// Stats summarizes the store under the global mutex.
func (s *SerializedStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Stats()
}

// Snapshot copies all live entries under the global mutex.
func (s *SerializedStore) Snapshot() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Snapshot()
}

// Export writes a snapshot under the global mutex.
func (s *SerializedStore) Export(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Export(w)
}

// Import reads a snapshot under the global mutex.
func (s *SerializedStore) Import(r io.Reader) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Import(r)
}
