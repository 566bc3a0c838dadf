// Package cachestore implements the in-memory store behind the
// approximate cache: feature-keyed entries, capacity-bounded eviction
// (LRU, LFU, or cost-aware) and audit quarantine. Entries never expire:
// they leave by eviction, removal or failed parole. They are mirrored into
// a nearest-neighbor index (internal/lsh) so lookups are approximate while
// bookkeeping stays exact.
package cachestore

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/simclock"
)

// Policy selects the eviction policy.
type Policy int

// Supported eviction policies.
const (
	// LRU evicts the least recently used entry.
	LRU Policy = iota + 1
	// LFU evicts the least frequently used entry, breaking ties by
	// recency.
	LFU
	// CostAware evicts the entry with the smallest expected saving,
	// estimated as saved-cost × (hits + 1), breaking ties by recency.
	// This is the Potluck-style "value of cached computation" policy.
	CostAware
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case LFU:
		return "lfu"
	case CostAware:
		return "cost-aware"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Entry is one cached recognition result as the store hands it out: a
// snapshot assembled from the entry table (see record), with its own
// copy of the vector. Mutating one does not affect the cache.
type Entry struct {
	ID         lsh.ID
	Vec        feature.Vector
	Label      string
	Confidence float64
	// Source records where the result came from ("dnn", "peer", ...).
	Source string
	// SavedCost is the computation this entry avoids on a hit
	// (typically the DNN inference latency).
	SavedCost  time.Duration
	InsertedAt time.Time
	LastAccess time.Time
	Hits       int
	// Confirms and Refutes count shadow-audit outcomes: audits whose
	// DNN label agreed (confirm) or disagreed (refute) with this
	// entry. A confirm forgives one outstanding refute; neither
	// counter ever goes negative.
	Confirms int
	Refutes  int
	// ParoleFails counts failed re-verifications while quarantined.
	ParoleFails int
	// Quarantined marks an entry pulled from the candidate index:
	// it no longer appears in Nearest results or kNN votes, and
	// Label refuses to resolve it, until a parole re-verification
	// reinstates it.
	Quarantined bool
}

// record is one row of the entry table: an Entry's bookkeeping held by
// value, timestamps as unix nanos, counters narrowed (they saturate).
// It holds no vector: see Store.vecOf.
type record struct {
	id          lsh.ID
	label       string
	source      string
	confidence  float64
	savedCost   time.Duration
	insertedAt  int64
	lastAccess  int64
	hits        uint32
	confirms    uint32
	refutes     uint32
	paroleFails uint32
	quarantined bool
}

// entry assembles r's snapshot around vec, which the caller obtained
// from Store.vecOf.
func (r *record) entry(vec feature.Vector) Entry {
	return Entry{
		ID:          r.id,
		Vec:         vec,
		Label:       r.label,
		Confidence:  r.confidence,
		Source:      r.source,
		SavedCost:   r.savedCost,
		InsertedAt:  time.Unix(0, r.insertedAt),
		LastAccess:  time.Unix(0, r.lastAccess),
		Hits:        int(r.hits),
		Confirms:    int(r.confirms),
		Refutes:     int(r.refutes),
		ParoleFails: int(r.paroleFails),
		Quarantined: r.quarantined,
	}
}

// bump increments a narrowed counter, saturating instead of wrapping.
func bump(c *uint32) {
	if *c != math.MaxUint32 {
		*c++
	}
}

// Config parameterizes a Store.
type Config struct {
	// Capacity is the maximum number of entries. Must be positive.
	Capacity int
	// Policy selects the eviction policy. Defaults to LRU when zero.
	Policy Policy
	// QuarantineThreshold quarantines an entry once its outstanding
	// refute count (refutes minus forgiven ones) reaches this value.
	// Zero disables quarantine: refutes are still counted but never
	// act.
	QuarantineThreshold int
}

// paroleFailLimit evicts a quarantined entry after this many failed
// parole re-verifications.
const paroleFailLimit = 2

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Capacity <= 0 {
		return fmt.Errorf("cachestore: capacity must be positive, got %d", c.Capacity)
	}
	if c.QuarantineThreshold < 0 {
		return fmt.Errorf("cachestore: quarantine threshold must be non-negative, got %d", c.QuarantineThreshold)
	}
	switch c.Policy {
	case 0, LRU, LFU, CostAware:
		return nil
	default:
		return fmt.Errorf("cachestore: unknown policy %d", int(c.Policy))
	}
}

// Store is a capacity-bounded entry store mirrored into a
// nearest-neighbor index. Store is safe for concurrent use.
type Store struct {
	cfg   Config
	clock simclock.Clock
	index lsh.Index

	// src is index's VectorSource side, nil when it has none (then every
	// record keeps its own vector).
	src lsh.VectorSource

	mu sync.RWMutex
	// recs is the entry table: every live entry's record, by value, in
	// no particular order, kept compact by swap-delete so every scan
	// (victim search, stats, snapshot) is one pass over
	// contiguous memory. It grows with the entries actually held, never
	// ahead to Capacity (see growLocked). slot maps an ID to its row.
	recs []record
	slot map[lsh.ID]int32
	// owned holds the store's own copy of an entry's vector, only while
	// the index cannot hand it back: while the entry is quarantined (it
	// is out of the index), or always when the index is no
	// lsh.VectorSource. A live entry on a VectorSource index is absent
	// here — its vector is stored once, in the index arena. Kept beside
	// the table rather than as a slice header in every row, since on the
	// standard pipeline all but a handful of rows would hold nil.
	owned  map[lsh.ID]feature.Vector
	nextID lsh.ID
	// nlive/evictions are atomics so the observability reads (Len,
	// Evictions — polled by metrics scrapes and node printouts) never
	// take the store lock. Only lock holders write them.
	nlive     atomic.Int64
	evictions atomic.Int64
	// Quarantine counters: the current population, then the cumulative
	// lifecycle.
	qActive  int // entries quarantined right now
	qTotal   int // entries ever quarantined
	qParoled int // quarantined entries reinstated by parole
	qEvicted int // quarantined entries evicted at the parole-fail limit
}

// New builds a Store over index using clock for all timing.
func New(cfg Config, index lsh.Index, clock simclock.Clock) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if index == nil {
		return nil, fmt.Errorf("cachestore: nil index")
	}
	if clock == nil {
		return nil, fmt.Errorf("cachestore: nil clock")
	}
	if cfg.Policy == 0 {
		cfg.Policy = LRU
	}
	src, _ := index.(lsh.VectorSource)
	return &Store{
		cfg:    cfg,
		clock:  clock,
		index:  index,
		src:    src,
		slot:   make(map[lsh.ID]int32),
		owned:  make(map[lsh.ID]feature.Vector),
		nextID: 1,
	}, nil
}

// Len returns the number of live entries. Lock-free.
func (s *Store) Len() int {
	return int(s.nlive.Load())
}

// Evictions returns how many entries capacity pressure has evicted.
// Lock-free.
func (s *Store) Evictions() int {
	return int(s.evictions.Load())
}

// Insert stores a new recognition result and returns its ID, evicting
// per policy if the store is full.
func (s *Store) Insert(vec feature.Vector, label string, confidence float64, source string, savedCost time.Duration) (lsh.ID, error) {
	if len(vec) == 0 {
		return 0, fmt.Errorf("cachestore: empty feature vector")
	}
	if label == "" {
		return 0, fmt.Errorf("cachestore: empty label")
	}
	now := s.clock.Now().UnixNano()

	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.recs) >= s.cfg.Capacity {
		victim, ok := s.victimLocked()
		if !ok {
			break
		}
		s.removeLocked(victim)
		s.evictions.Add(1)
	}
	id := s.nextID
	s.nextID++
	r := record{
		id:         id,
		label:      label,
		source:     source,
		confidence: confidence,
		savedCost:  savedCost,
		insertedAt: now,
		lastAccess: now,
	}
	if s.src == nil {
		// The index cannot hand the vector back: keep a copy (and give
		// the index that copy, never the caller's slice).
		vec = vec.Clone()
		s.owned[id] = vec
	}
	if err := s.index.Insert(id, vec); err != nil {
		delete(s.owned, id)
		return 0, fmt.Errorf("index insert: %w", err)
	}
	if len(s.recs) == cap(s.recs) {
		s.growLocked()
	}
	s.slot[id] = int32(len(s.recs))
	s.recs = append(s.recs, r)
	s.nlive.Add(1)
	return id, nil
}

// recLocked returns id's record, or nil. The pointer is into the entry
// table: valid until the lock is released or the table changes shape.
func (s *Store) recLocked(id lsh.ID) *record {
	i, ok := s.slot[id]
	if !ok {
		return nil
	}
	return &s.recs[i]
}

// growLocked makes room for one more row. Growth is geometric but
// never past Capacity — the table cannot hold more — so a full store
// carries no spare rows.
func (s *Store) growLocked() {
	n := len(s.recs)
	grown := make([]record, n, min(max(n+n/2, 16), s.cfg.Capacity))
	copy(grown, s.recs)
	s.recs = grown
}

// vecOf copies r's vector into dst's backing array (which may be nil):
// the store's own copy while it holds one, else the index's — the one
// place that knows where an entry's vector lives. Caller holds mu.
func (s *Store) vecOf(r *record, dst feature.Vector) feature.Vector {
	if v, ok := s.owned[r.id]; ok {
		return append(dst[:0], v...)
	}
	// Not owned: a VectorSource index holds r.id.
	v, _ := s.src.VectorInto(r.id, dst)
	return v
}

// Touch records a cache hit on id, updating recency and frequency.
func (s *Store) Touch(id lsh.ID) {
	now := s.clock.Now().UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.recLocked(id); r != nil {
		r.lastAccess = now
		bump(&r.hits)
	}
}

// Label resolves id to its label if the entry is live. It matches the
// callback shape of lsh.Vote. Quarantined entries do not resolve:
// they are already absent from the candidate index, but stale IDs
// held by callers (peer answers, in-flight votes) must not revive a
// suspect label either.
func (s *Store) Label(id lsh.ID) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r := s.recLocked(id)
	if r == nil || r.quarantined {
		return "", false
	}
	return r.label, true
}

// Answer resolves id to the label and confidence it is served with, if
// the entry is live, for callers that serve a candidate directly and
// have no use for its vector.
func (s *Store) Answer(id lsh.ID) (label string, confidence float64, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r := s.recLocked(id)
	if r == nil {
		return "", 0, false
	}
	return r.label, r.confidence, true
}

// Nearest returns up to k neighbors of q among live entries, ordered by
// distance.
func (s *Store) Nearest(q feature.Vector, k int) ([]lsh.Neighbor, error) {
	return s.NearestInto(q, k, nil)
}

// NearestInto is Nearest writing into dst's backing array. Over an
// IntoIndex — the standard pipeline shape — a lookup takes no store
// lock, only the index's read lock, and performs no allocation.
func (s *Store) NearestInto(q feature.Vector, k int, dst []lsh.Neighbor) ([]lsh.Neighbor, error) {
	return s.NearestWithinInto(q, k, math.Inf(1), dst)
}

// withinIndex is the optional radius-bounded search of an index (every
// in-tree one has it): NearestInto cut at the first neighbor farther
// than radius, which lets the scan skip out-of-range candidates early.
type withinIndex interface {
	NearestWithinInto(q feature.Vector, k int, radius float64, dst []lsh.Neighbor) ([]lsh.Neighbor, error)
}

// NearestWithinInto is NearestInto restricted to a search radius: it
// returns exactly the neighbors NearestInto(q, k) would whose Distance
// is at most radius (an infinite or NaN radius restricts nothing).
// Callers that only act on in-range neighbors should say so here — the
// index then stops scoring a candidate as soon as it is out of range.
// It is not part of Interface (see there for why): callers holding an
// Interface reach it through the package function NearestWithinInto.
func (s *Store) NearestWithinInto(q feature.Vector, k int, radius float64, dst []lsh.Neighbor) ([]lsh.Neighbor, error) {
	var ns []lsh.Neighbor
	var err error
	switch ix := s.index.(type) {
	case withinIndex:
		return ix.NearestWithinInto(q, k, radius, dst)
	case lsh.IntoIndex:
		ns, err = ix.NearestInto(q, k, dst)
	default:
		ns, err = s.index.Nearest(q, k)
	}
	return cutWithin(ns, radius), err
}

// cutWithin cuts an ascending neighbor list at the first neighbor
// farther than radius: what a radius search returns, computed from an
// unbounded one.
func cutWithin(ns []lsh.Neighbor, radius float64) []lsh.Neighbor {
	for i, n := range ns {
		if n.Distance > radius {
			return ns[:i]
		}
	}
	return ns
}

// withinStore is the optional radius-bounded lookup of a store. Store
// has it; it is deliberately not part of Interface (see there), so a
// wrapper that embeds Interface without knowing the method falls back
// instead of silently forwarding it.
type withinStore interface {
	NearestWithinInto(q feature.Vector, k int, radius float64, dst []lsh.Neighbor) ([]lsh.Neighbor, error)
}

// NearestWithinInto searches st for the k nearest neighbors of q within
// radius, for callers that hold a store of unknown kind: through the
// store's own NearestWithinInto when it has one (which lets the index
// stop scoring out-of-range candidates early), else through NearestInto
// with the result cut at the radius. Either way the result is exactly
// NearestInto(q, k) up to the first neighbor farther than radius.
func NearestWithinInto(st Interface, q feature.Vector, k int, radius float64, dst []lsh.Neighbor) ([]lsh.Neighbor, error) {
	if ws, ok := st.(withinStore); ok {
		return ws.NearestWithinInto(q, k, radius, dst)
	}
	ns, err := st.NearestInto(q, k, dst)
	return cutWithin(ns, radius), err
}

// Remove deletes id from the store and index.
func (s *Store) Remove(id lsh.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.removeLocked(id)
}

// Confirm records a shadow-audit agreement on id: the DNN re-ran on a
// frame this entry served and produced the same label. One outstanding
// refute is forgiven; neither counter ever goes negative.
func (s *Store) Confirm(id lsh.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.recLocked(id)
	if r == nil {
		return
	}
	bump(&r.confirms)
	if r.refutes > 0 {
		r.refutes--
	}
}

// Refute records a shadow-audit disagreement on id. When the
// outstanding refute count reaches the quarantine threshold, the entry
// is pulled from the candidate index: it stops appearing in Nearest
// results and kNN votes until a parole re-verification reinstates it.
func (s *Store) Refute(id lsh.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.recLocked(id)
	if r == nil || r.quarantined {
		return
	}
	bump(&r.refutes)
	if s.cfg.QuarantineThreshold > 0 && int(r.refutes) >= s.cfg.QuarantineThreshold {
		s.quarantineLocked(r)
	}
}

// quarantineLocked pulls r out of the candidate index, first taking
// over the vector the index is about to forget.
func (s *Store) quarantineLocked(r *record) {
	if s.src != nil {
		s.owned[r.id] = s.vecOf(r, nil)
	}
	r.quarantined = true
	s.qActive++
	s.qTotal++
	s.index.Remove(r.id)
}

// Parole records the outcome of re-verifying a quarantined entry
// against a fresh DNN result. ok reinstates the entry into the
// candidate index with cleared audit counters; !ok counts a parole
// failure and evicts the entry once paroleFailLimit failures
// accumulate.
func (s *Store) Parole(id lsh.ID, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.recLocked(id)
	if r == nil || !r.quarantined {
		return
	}
	if ok {
		if err := s.index.Insert(id, s.owned[id]); err == nil {
			r.quarantined = false
			r.refutes = 0
			r.paroleFails = 0
			s.qActive--
			s.qParoled++
			if s.src != nil {
				delete(s.owned, id) // the index serves it again
			}
			return
		}
		// The index refused the vector it previously held (cannot
		// happen with the in-tree indexes); evict the entry rather
		// than keep a permanently unfindable one.
	} else if bump(&r.paroleFails); r.paroleFails < paroleFailLimit {
		return
	}
	s.removeLocked(id)
	s.qEvicted++
}

// QuarantinedEntries returns copies of the quarantined entries only —
// what a parole sweep needs, without Snapshot's copy of everything
// else.
func (s *Store) QuarantinedEntries() []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.qActive == 0 {
		return nil
	}
	out := make([]Entry, 0, s.qActive)
	for i := range s.recs {
		if r := &s.recs[i]; r.quarantined {
			out = append(out, r.entry(s.vecOf(r, nil)))
		}
	}
	return out
}

// QuarantineStats summarizes quarantine activity.
type QuarantineStats struct {
	// Active is the number of currently quarantined entries.
	Active int
	// Total counts entries ever quarantined.
	Total int
	// Paroled counts quarantined entries reinstated by parole.
	Paroled int
	// Evicted counts quarantined entries removed at the parole-fail
	// limit.
	Evicted int
}

// QuarantineStats returns the store's quarantine lifecycle counters.
func (s *Store) QuarantineStats() QuarantineStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return QuarantineStats{
		Active:  s.qActive,
		Total:   s.qTotal,
		Paroled: s.qParoled,
		Evicted: s.qEvicted,
	}
}

// StoreStats summarizes the store's occupancy and churn.
type StoreStats struct {
	// Entries is the live entry count.
	Entries int
	// Evictions counts entries capacity pressure removed.
	Evictions int
	// BySource counts live entries by their recorded source.
	BySource map[string]int
	// TotalHits sums the hit counters of live entries.
	TotalHits int
	// SavedTotal sums SavedCost × Hits over live entries: the
	// inference time this store's reuse has avoided so far.
	SavedTotal time.Duration
}

// Stats returns an occupancy/churn summary. It runs entirely under the
// read lock, so periodic stats scraping cannot stall the lookup path.
func (s *Store) Stats() StoreStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := StoreStats{
		Entries:   len(s.recs),
		Evictions: int(s.evictions.Load()),
		BySource:  make(map[string]int),
	}
	for i := range s.recs {
		r := &s.recs[i]
		st.BySource[r.source]++
		st.TotalHits += int(r.hits)
		st.SavedTotal += time.Duration(r.hits) * r.savedCost
	}
	return st
}

// Snapshot returns copies of all live entries, for export/gossip. Like
// Stats, it only needs the read lock.
func (s *Store) Snapshot() []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Entry, len(s.recs))
	for i := range s.recs {
		r := &s.recs[i]
		out[i] = r.entry(s.vecOf(r, nil))
	}
	return out
}

func (s *Store) removeLocked(id lsh.ID) {
	i, ok := s.slot[id]
	if !ok {
		return
	}
	s.dropLocked(i)
	s.index.Remove(id)
}

// dropLocked forgets row i's bookkeeping — its map entry and its row,
// which the table's last record takes over — leaving the index to the
// caller.
func (s *Store) dropLocked(i int32) {
	if s.recs[i].quarantined {
		s.qActive--
	}
	id := s.recs[i].id
	delete(s.slot, id)
	delete(s.owned, id)
	last := int32(len(s.recs) - 1)
	if i != last {
		s.recs[i] = s.recs[last]
		s.slot[s.recs[i].id] = i
	}
	s.recs[last] = record{} // let go of its strings
	s.recs = s.recs[:last]
	s.nlive.Add(-1)
}

// victimLocked picks the entry to evict under the configured policy:
// one pass over the table. The (value, lastAccess, id) order is total,
// so the victim does not depend on the order rows are visited in.
func (s *Store) victimLocked() (lsh.ID, bool) {
	if len(s.recs) == 0 {
		return 0, false
	}
	best := &s.recs[0]
	for i := 1; i < len(s.recs); i++ {
		if r := &s.recs[i]; s.worse(r, best) {
			best = r
		}
	}
	return best.id, true
}

// worse reports whether cand should be evicted before incumbent.
func (s *Store) worse(cand, incumbent *record) bool {
	switch s.cfg.Policy {
	case LFU:
		if cand.hits != incumbent.hits {
			return cand.hits < incumbent.hits
		}
	case CostAware:
		cv := float64(cand.savedCost) * (float64(cand.hits) + 1)
		iv := float64(incumbent.savedCost) * (float64(incumbent.hits) + 1)
		if cv != iv {
			return cv < iv
		}
	}
	if cand.lastAccess != incumbent.lastAccess {
		return cand.lastAccess < incumbent.lastAccess
	}
	// Final tie-break by ID for determinism.
	return cand.id < incumbent.id
}
