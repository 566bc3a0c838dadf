package lsh

import (
	"sync"

	"approxcache/internal/feature"
)

// Locked wraps a HyperplaneIndex behind a single RWMutex, reproducing
// the pre-lock-free read path: every lookup takes a read lock, every
// mutation a write lock. It exists as the measured baseline for the
// read-scalability experiment (E24) and as the reference
// implementation for the lock-free differential tests — under the
// mutex the wrapped index runs single-threaded, so its results define
// what the lock-free path must reproduce bit for bit.
//
// The wrapper serializes at its own lock word; the inner index's
// publication machinery still runs but is never contended, so the
// wrapper measures exactly the cost the tentpole removed: shared
// lock-word cache-line traffic on the read path.
type Locked struct {
	mu    sync.RWMutex
	inner *HyperplaneIndex
}

var (
	_ IntoIndex    = (*Locked)(nil)
	_ VectorSource = (*Locked)(nil)
)

// NewLocked wraps idx behind a single RWMutex.
func NewLocked(idx *HyperplaneIndex) *Locked {
	return &Locked{inner: idx}
}

// Unwrap returns the wrapped index (tests compare internals).
func (l *Locked) Unwrap() *HyperplaneIndex { return l.inner }

// Insert adds (id, v) under the write lock.
func (l *Locked) Insert(id ID, v feature.Vector) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Insert(id, v)
}

// Remove deletes id under the write lock.
func (l *Locked) Remove(id ID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inner.Remove(id)
}

// VectorInto copies id's vector out of the wrapped index under the read
// lock.
func (l *Locked) VectorInto(id ID, dst feature.Vector) (feature.Vector, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.inner.VectorInto(id, dst)
}

// Nearest returns up to k neighbors under the read lock.
func (l *Locked) Nearest(q feature.Vector, k int) ([]Neighbor, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.inner.Nearest(q, k)
}

// NearestInto is Nearest writing into dst, under the read lock.
func (l *Locked) NearestInto(q feature.Vector, k int, dst []Neighbor) ([]Neighbor, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.inner.NearestInto(q, k, dst)
}

// NearestWithinInto is the radius-bounded NearestInto, under the read
// lock.
func (l *Locked) NearestWithinInto(q feature.Vector, k int, radius float64, dst []Neighbor) ([]Neighbor, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.inner.NearestWithinInto(q, k, radius, dst)
}

// Candidates returns q's candidate set under the read lock.
func (l *Locked) Candidates(q feature.Vector) ([]ID, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.inner.Candidates(q)
}

// CandidatesInto is Candidates appending into dst, under the read lock.
func (l *Locked) CandidatesInto(q feature.Vector, dst []ID) ([]ID, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.inner.CandidatesInto(q, dst)
}

// Len returns the number of indexed vectors under the read lock.
func (l *Locked) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.inner.Len()
}

// Stats returns occupancy statistics under the read lock.
func (l *Locked) Stats() Stats {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.inner.Stats()
}
