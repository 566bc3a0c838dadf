// Package cachestore implements the in-memory store behind the
// approximate cache: feature-keyed entries, capacity-bounded eviction
// (LRU, LFU, or cost-aware), and TTL expiry. Entries are mirrored into a
// nearest-neighbor index (internal/lsh) so lookups are approximate while
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

// Entry is one cached recognition result. Copies returned by the store
// are snapshots; mutating them does not affect the cache.
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

	// pos is the entry's position in its store's dense list (see
	// Store.dense); always zero in the copies a store hands out.
	pos int
}

// Config parameterizes a Store.
type Config struct {
	// Capacity is the maximum number of entries. Must be positive.
	Capacity int
	// Policy selects the eviction policy. Defaults to LRU when zero.
	Policy Policy
	// TTL expires entries this long after insertion. Zero disables
	// expiry.
	TTL time.Duration
	// QuarantineThreshold quarantines an entry once its outstanding
	// refute count (refutes minus forgiven ones) reaches this value.
	// Zero disables quarantine: refutes are still counted but never
	// act.
	QuarantineThreshold int
	// ParoleFailLimit evicts a quarantined entry after this many
	// failed parole re-verifications. Zero keeps the default (2)
	// when quarantine is enabled.
	ParoleFailLimit int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Capacity <= 0 {
		return fmt.Errorf("cachestore: capacity must be positive, got %d", c.Capacity)
	}
	if c.QuarantineThreshold < 0 {
		return fmt.Errorf("cachestore: quarantine threshold must be non-negative, got %d", c.QuarantineThreshold)
	}
	if c.ParoleFailLimit < 0 {
		return fmt.Errorf("cachestore: parole fail limit must be non-negative, got %d", c.ParoleFailLimit)
	}
	switch c.Policy {
	case 0, LRU, LFU, CostAware:
		return nil
	default:
		return fmt.Errorf("cachestore: unknown policy %d", int(c.Policy))
	}
}

// Store is a capacity-bounded, TTL-aware entry store mirrored into a
// nearest-neighbor index. Store is safe for concurrent use.
type Store struct {
	cfg   Config
	clock simclock.Clock
	index lsh.Index

	mu      sync.RWMutex
	entries map[lsh.ID]*Entry
	// dense lists the same entries in no particular order, kept compact
	// by swap-delete (Entry.pos), so eviction's victim search walks a
	// slice instead of iterating the map.
	dense  []*Entry
	nextID lsh.ID
	// nlive/evictions/expiries are atomics so the observability reads
	// (Len, Evictions, Expiries — polled by metrics scrapes and node
	// printouts) never take the store lock. Only lock holders write
	// them.
	nlive     atomic.Int64
	evictions atomic.Int64
	expiries  atomic.Int64
	// minExpiry is the earliest InsertedAt+TTL over live entries as
	// unix nanos (0 = none). Lookups consult it lock-free: until the
	// clock passes it, nothing can be expired and the TTL purge scan
	// is skipped entirely. It may run stale-low after a removal, which
	// costs at most one wasted scan that then recomputes it.
	minExpiry atomic.Int64
	// Quarantine lifecycle counters (cumulative).
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
	if cfg.QuarantineThreshold > 0 && cfg.ParoleFailLimit == 0 {
		cfg.ParoleFailLimit = 2
	}
	return &Store{
		cfg:     cfg,
		clock:   clock,
		index:   index,
		entries: make(map[lsh.ID]*Entry, cfg.Capacity),
		nextID:  1,
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

// Expiries returns how many entries TTL expiry has removed. Lock-free.
func (s *Store) Expiries() int {
	return int(s.expiries.Load())
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
	now := s.clock.Now()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(now)
	for len(s.entries) >= s.cfg.Capacity {
		victim, ok := s.victimLocked()
		if !ok {
			break
		}
		s.removeLocked(victim)
		s.evictions.Add(1)
	}
	id := s.nextID
	s.nextID++
	e := &Entry{
		ID:         id,
		Vec:        vec.Clone(),
		Label:      label,
		Confidence: confidence,
		Source:     source,
		SavedCost:  savedCost,
		InsertedAt: now,
		LastAccess: now,
	}
	if err := s.index.Insert(id, e.Vec); err != nil {
		return 0, fmt.Errorf("index insert: %w", err)
	}
	e.pos = len(s.dense)
	s.dense = append(s.dense, e)
	s.entries[id] = e
	s.nlive.Add(1)
	if s.cfg.TTL > 0 {
		exp := now.Add(s.cfg.TTL).UnixNano()
		if exp == 0 {
			exp = 1 // 0 means "no deadline"; off by 1ns conservative
		}
		if m := s.minExpiry.Load(); m == 0 || exp < m {
			s.minExpiry.Store(exp)
		}
	}
	return id, nil
}

// Get returns a snapshot of the entry and whether it is live (present
// and unexpired). Get does not count as a use for eviction purposes.
func (s *Store) Get(id lsh.ID) (Entry, bool) {
	now := s.clock.Now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[id]
	if !ok || s.expiredLocked(e, now) {
		return Entry{}, false
	}
	return snapshotEntry(e), true
}

// snapshotEntry copies e, including its feature vector, so callers can
// never mutate store internals.
func snapshotEntry(e *Entry) Entry {
	out := *e
	out.Vec = e.Vec.Clone()
	out.pos = 0
	return out
}

// Touch records a cache hit on id, updating recency and frequency.
func (s *Store) Touch(id lsh.ID) {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[id]; ok {
		e.LastAccess = now
		e.Hits++
	}
}

// Label resolves id to its label if the entry is live. It matches the
// callback shape of lsh.Vote. Quarantined entries do not resolve:
// they are already absent from the candidate index, but stale IDs
// held by callers (peer answers, in-flight votes) must not revive a
// suspect label either.
func (s *Store) Label(id lsh.ID) (string, bool) {
	e, ok := s.Get(id)
	if !ok || e.Quarantined {
		return "", false
	}
	return e.Label, true
}

// Nearest returns up to k neighbors of q among live entries, ordered by
// distance. Expired entries are removed before searching.
func (s *Store) Nearest(q feature.Vector, k int) ([]lsh.Neighbor, error) {
	return s.NearestInto(q, k, nil)
}

// NearestInto is Nearest writing into dst's backing array. With a
// TTL-free store over an IntoIndex — the standard pipeline shape — a
// lookup takes no store lock and performs no allocation, so read-mostly
// lookups never contend with each other.
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
func (s *Store) NearestWithinInto(q feature.Vector, k int, radius float64, dst []lsh.Neighbor) ([]lsh.Neighbor, error) {
	s.purgeExpired(s.clock.Now())
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

// withinStore is the optional radius-bounded lookup of a store. Every
// in-tree store has it; it is deliberately not part of Interface, so a
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

// purgeExpired removes expired entries. The fast path is one atomic
// load: until the clock passes the tracked earliest expiry deadline,
// nothing can be expired and no lock is taken at all, so TTL-enabled
// stores keep a fully lock-free lookup path between expiry events.
func (s *Store) purgeExpired(now time.Time) {
	if s.cfg.TTL <= 0 {
		return
	}
	m := s.minExpiry.Load()
	if m == 0 || now.UnixNano() <= m {
		return
	}
	s.mu.Lock()
	s.expireLocked(now)
	s.mu.Unlock()
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
	e, ok := s.entries[id]
	if !ok {
		return
	}
	e.Confirms++
	if e.Refutes > 0 {
		e.Refutes--
	}
}

// Refute records a shadow-audit disagreement on id. When the
// outstanding refute count reaches the quarantine threshold, the entry
// is pulled from the candidate index: it stops appearing in Nearest
// results and kNN votes until a parole re-verification reinstates it.
// Refute reports whether this call quarantined the entry.
func (s *Store) Refute(id lsh.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok || e.Quarantined {
		return false
	}
	e.Refutes++
	if s.cfg.QuarantineThreshold <= 0 || e.Refutes < s.cfg.QuarantineThreshold {
		return false
	}
	e.Quarantined = true
	s.qTotal++
	s.index.Remove(id)
	return true
}

// ParoleOutcome reports what a parole re-verification did to an entry.
type ParoleOutcome int

const (
	// ParoleMissing: the entry is gone or was never quarantined.
	ParoleMissing ParoleOutcome = iota
	// ParoleReinstated: the re-verification agreed; the entry is back
	// in the candidate index with cleared audit counters.
	ParoleReinstated
	// ParoleHeld: the re-verification disagreed; still quarantined.
	ParoleHeld
	// ParoleEvicted: the re-verification disagreed once too often;
	// the entry has been removed for good.
	ParoleEvicted
)

// Parole records the outcome of re-verifying a quarantined entry
// against a fresh DNN result. ok reinstates the entry into the
// candidate index with cleared audit counters; !ok counts a parole
// failure and evicts the entry once ParoleFailLimit failures
// accumulate.
func (s *Store) Parole(id lsh.ID, ok bool) ParoleOutcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, live := s.entries[id]
	if !live || !e.Quarantined {
		return ParoleMissing
	}
	if ok {
		e.Quarantined = false
		e.Refutes = 0
		e.ParoleFails = 0
		s.qParoled++
		if err := s.index.Insert(id, e.Vec); err != nil {
			// The index refused the vector it previously held (cannot
			// happen with the in-tree indexes); drop the entry rather
			// than keep a permanently unfindable one.
			s.dropLocked(e)
			s.qEvicted++
			return ParoleEvicted
		}
		return ParoleReinstated
	}
	e.ParoleFails++
	if s.cfg.ParoleFailLimit > 0 && e.ParoleFails >= s.cfg.ParoleFailLimit {
		s.removeLocked(id)
		s.qEvicted++
		return ParoleEvicted
	}
	return ParoleHeld
}

// Quarantined reports whether id is currently quarantined.
func (s *Store) Quarantined(id lsh.ID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[id]
	return ok && e.Quarantined
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
	st := QuarantineStats{
		Total:   s.qTotal,
		Paroled: s.qParoled,
		Evicted: s.qEvicted,
	}
	for _, e := range s.entries {
		if e.Quarantined {
			st.Active++
		}
	}
	return st
}

// StoreStats summarizes the store's occupancy and churn.
type StoreStats struct {
	// Entries is the live entry count.
	Entries int
	// Evictions and Expiries count removals by cause.
	Evictions int
	Expiries  int
	// BySource counts live entries by their recorded source.
	BySource map[string]int
	// TotalHits sums the hit counters of live entries.
	TotalHits int
	// SavedTotal sums SavedCost × Hits over live entries: the
	// inference time this store's reuse has avoided so far.
	SavedTotal time.Duration
}

// Stats returns an occupancy/churn summary. A snapshot of a store with
// nothing expired runs entirely under the read lock, so periodic stats
// scraping cannot stall the lookup path.
func (s *Store) Stats() StoreStats {
	s.purgeExpired(s.clock.Now())
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := StoreStats{
		Entries:   len(s.entries),
		Evictions: int(s.evictions.Load()),
		Expiries:  int(s.expiries.Load()),
		BySource:  make(map[string]int),
	}
	for _, e := range s.entries {
		st.BySource[e.Source]++
		st.TotalHits += e.Hits
		st.SavedTotal += time.Duration(e.Hits) * e.SavedCost
	}
	return st
}

// Snapshot returns copies of all live entries, for export/gossip. Like
// Stats, it only needs the read lock unless entries have expired.
func (s *Store) Snapshot() []Entry {
	s.purgeExpired(s.clock.Now())
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Entry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, snapshotEntry(e))
	}
	return out
}

func (s *Store) removeLocked(id lsh.ID) {
	e, ok := s.entries[id]
	if !ok {
		return
	}
	s.dropLocked(e)
	s.index.Remove(id)
}

// dropLocked forgets e's bookkeeping — the map entry and its dense-list
// position, which the list's last entry takes over — leaving the index
// to the caller.
func (s *Store) dropLocked(e *Entry) {
	delete(s.entries, e.ID)
	last := len(s.dense) - 1
	moved := s.dense[last]
	s.dense[e.pos] = moved
	moved.pos = e.pos
	s.dense[last] = nil
	s.dense = s.dense[:last]
	s.nlive.Add(-1)
}

func (s *Store) expiredLocked(e *Entry, now time.Time) bool {
	return s.cfg.TTL > 0 && now.Sub(e.InsertedAt) > s.cfg.TTL
}

func (s *Store) expireLocked(now time.Time) {
	if s.cfg.TTL <= 0 {
		return
	}
	var next int64 // earliest surviving deadline, unix nanos (0 = none)
	for id, e := range s.entries {
		if s.expiredLocked(e, now) {
			s.removeLocked(id)
			s.expiries.Add(1)
			continue
		}
		exp := e.InsertedAt.Add(s.cfg.TTL).UnixNano()
		if exp == 0 {
			exp = 1
		}
		if next == 0 || exp < next {
			next = exp
		}
	}
	s.minExpiry.Store(next)
}

// victimLocked picks the entry to evict under the configured policy.
// The (value, LastAccess, ID) order is total, so the victim does not
// depend on the order entries are visited in.
func (s *Store) victimLocked() (lsh.ID, bool) {
	var (
		victim lsh.ID
		found  bool
		best   *Entry
	)
	worse := func(cand, incumbent *Entry) bool {
		switch s.cfg.Policy {
		case LFU:
			if cand.Hits != incumbent.Hits {
				return cand.Hits < incumbent.Hits
			}
		case CostAware:
			cv := float64(cand.SavedCost) * float64(cand.Hits+1)
			iv := float64(incumbent.SavedCost) * float64(incumbent.Hits+1)
			if cv != iv {
				return cv < iv
			}
		}
		if !cand.LastAccess.Equal(incumbent.LastAccess) {
			return cand.LastAccess.Before(incumbent.LastAccess)
		}
		// Final tie-break by ID for determinism.
		return cand.ID < incumbent.ID
	}
	for _, e := range s.dense {
		if !found || worse(e, best) {
			victim, best, found = e.ID, e, true
		}
	}
	return victim, found
}
