package cachestore

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/metrics"
	"approxcache/internal/simclock"
)

// ShardedConfig parameterizes a ShardedStore.
type ShardedConfig struct {
	// Config is the aggregate store shape; Capacity is the TOTAL
	// across shards (split evenly, rounded up).
	Config
	// Dim is the feature vector dimensionality (the router projects
	// vectors onto its own hyperplanes to pick a shard).
	Dim int
	// Shards is the number of lock stripes, in [1, 256].
	Shards int
	// RouterSeed seeds the routing hyperplanes. Routing is part of
	// the store's identity only in memory — snapshots persist entries,
	// not shard assignments — so any seed round-trips.
	RouterSeed int64
}

// shardCounters is one shard's hot-path instrumentation. inflight is a
// gauge of operations currently inside the shard; an operation that
// begins while the gauge is already positive increments contended,
// approximating how often a single shared mutex would have blocked.
// Padded to a cache line so neighboring shards' counters don't
// false-share.
type shardCounters struct {
	lookups   atomic.Int64
	inserts   atomic.Int64
	contended atomic.Int64
	inflight  atomic.Int64
	_         [4]int64
}

func (c *shardCounters) enter() {
	if c.inflight.Add(1) > 1 {
		c.contended.Add(1)
	}
}

func (c *shardCounters) exit() { c.inflight.Add(-1) }

// ShardedStore partitions the cache across N independent Store shards,
// routed by LSH signature prefix over dedicated hyperplanes. Writers
// touching different shards never contend; a lookup fans out to every
// shard (each under its own read lock) and k-way-merges the per-shard
// top-k lists under the same (distance, ID) total order the unsharded
// index uses, so results are bit-identical to a single-shard store
// built from the same inserts with the same index seed.
//
// IDs are globalized as local*Shards + shard: decoding is a mod/div,
// and because per-shard local IDs start at 1, no global ID collides
// with another shard's.
type ShardedStore struct {
	cfg      ShardedConfig
	router   *lsh.Router
	shards   []*Store
	counters []shardCounters
	merge    sync.Pool // *mergeScratch
}

// mergeScratch holds the reusable per-lookup state: one top-k buffer
// per shard plus cursor positions for the k-way merge.
type mergeScratch struct {
	bufs [][]lsh.Neighbor
	pos  []int
}

// NewSharded builds a sharded store. newIndex constructs shard i's
// nearest-neighbor index; to keep sharded lookups bit-identical to an
// unsharded store, give every shard the same index seed.
func NewSharded(cfg ShardedConfig, newIndex func(shard int) (lsh.Index, error), clock simclock.Clock) (*ShardedStore, error) {
	if err := cfg.Config.Validate(); err != nil {
		return nil, err
	}
	if cfg.Shards < 1 || cfg.Shards > 256 {
		return nil, fmt.Errorf("cachestore: shards must be in [1,256], got %d", cfg.Shards)
	}
	if newIndex == nil {
		return nil, fmt.Errorf("cachestore: nil index constructor")
	}
	router, err := lsh.NewRouter(cfg.Dim, cfg.Shards, cfg.RouterSeed)
	if err != nil {
		return nil, err
	}
	perShard := cfg.Config
	perShard.Capacity = (cfg.Capacity + cfg.Shards - 1) / cfg.Shards
	s := &ShardedStore{
		cfg:      cfg,
		router:   router,
		shards:   make([]*Store, cfg.Shards),
		counters: make([]shardCounters, cfg.Shards),
	}
	idxs := make([]lsh.Index, cfg.Shards)
	for i := range s.shards {
		idx, err := newIndex(i)
		if err != nil {
			return nil, fmt.Errorf("cachestore: shard %d index: %w", i, err)
		}
		idxs[i] = idx
		s.shards[i], err = New(perShard, idx, clock)
		if err != nil {
			return nil, err
		}
	}
	// Every lookup hashes q in every shard: identically seeded shard
	// indexes keep one hyperplane matrix and hash q once between them.
	lsh.ShareFamily(idxs...)
	s.merge.New = func() any {
		return &mergeScratch{
			bufs: make([][]lsh.Neighbor, cfg.Shards),
			pos:  make([]int, cfg.Shards),
		}
	}
	return s, nil
}

// Shards returns the number of shards.
func (s *ShardedStore) Shards() int { return len(s.shards) }

func (s *ShardedStore) global(shard int, local lsh.ID) lsh.ID {
	return local*lsh.ID(len(s.shards)) + lsh.ID(shard)
}

func (s *ShardedStore) split(global lsh.ID) (shard int, local lsh.ID) {
	n := lsh.ID(len(s.shards))
	return int(global % n), global / n
}

// Insert routes the vector to its shard and stores it there, evicting
// within that shard if it is full. The returned ID is global.
func (s *ShardedStore) Insert(vec feature.Vector, label string, confidence float64, source string, savedCost time.Duration) (lsh.ID, error) {
	shard, err := s.router.Route(vec)
	if err != nil {
		return 0, err
	}
	c := &s.counters[shard]
	c.inserts.Add(1)
	c.enter()
	local, err := s.shards[shard].Insert(vec, label, confidence, source, savedCost)
	c.exit()
	if err != nil {
		return 0, err
	}
	return s.global(shard, local), nil
}

// Get returns a snapshot of the entry under its global ID.
func (s *ShardedStore) Get(id lsh.ID) (Entry, bool) {
	shard, local := s.split(id)
	e, ok := s.shards[shard].Get(local)
	if !ok {
		return Entry{}, false
	}
	e.ID = id
	return e, true
}

// Touch records a cache hit on the global id.
func (s *ShardedStore) Touch(id lsh.ID) {
	shard, local := s.split(id)
	s.shards[shard].Touch(local)
}

// Label resolves the global id to its label if live.
func (s *ShardedStore) Label(id lsh.ID) (string, bool) {
	shard, local := s.split(id)
	return s.shards[shard].Label(local)
}

// Remove deletes the global id.
func (s *ShardedStore) Remove(id lsh.ID) {
	shard, local := s.split(id)
	s.shards[shard].Remove(local)
}

// Confirm records an audit agreement on the global id.
func (s *ShardedStore) Confirm(id lsh.ID) {
	shard, local := s.split(id)
	s.shards[shard].Confirm(local)
}

// Refute records an audit disagreement on the global id.
func (s *ShardedStore) Refute(id lsh.ID) bool {
	shard, local := s.split(id)
	return s.shards[shard].Refute(local)
}

// Parole records a re-verification outcome for the global id.
func (s *ShardedStore) Parole(id lsh.ID, ok bool) ParoleOutcome {
	shard, local := s.split(id)
	return s.shards[shard].Parole(local, ok)
}

// Answer resolves the global id to its served label and confidence.
func (s *ShardedStore) Answer(id lsh.ID) (label string, confidence float64, ok bool) {
	shard, local := s.split(id)
	return s.shards[shard].Answer(local)
}

// QuarantinedEntries returns copies of the quarantined entries with
// global IDs.
func (s *ShardedStore) QuarantinedEntries() []Entry {
	var out []Entry
	for i, sh := range s.shards {
		for _, e := range sh.QuarantinedEntries() {
			e.ID = s.global(i, e.ID)
			out = append(out, e)
		}
	}
	return out
}

// Quarantined reports whether the global id is quarantined.
func (s *ShardedStore) Quarantined(id lsh.ID) bool {
	shard, local := s.split(id)
	return s.shards[shard].Quarantined(local)
}

// QuarantineStats aggregates quarantine activity across shards.
func (s *ShardedStore) QuarantineStats() QuarantineStats {
	var agg QuarantineStats
	for _, sh := range s.shards {
		st := sh.QuarantineStats()
		agg.Active += st.Active
		agg.Total += st.Total
		agg.Paroled += st.Paroled
		agg.Evicted += st.Evicted
	}
	return agg
}

// Nearest returns up to k neighbors of q across all shards.
func (s *ShardedStore) Nearest(q feature.Vector, k int) ([]lsh.Neighbor, error) {
	return s.NearestInto(q, k, nil)
}

// NearestInto fans the lookup out to every shard and merges the
// per-shard top-k lists. Per-shard buffers come from a pool, so a
// steady-state lookup with a caller-provided dst allocates nothing.
func (s *ShardedStore) NearestInto(q feature.Vector, k int, dst []lsh.Neighbor) ([]lsh.Neighbor, error) {
	return s.NearestWithinInto(q, k, math.Inf(1), dst)
}

// NearestWithinInto is NearestInto restricted to neighbors whose
// Distance is at most radius (see Store.NearestWithinInto): every shard
// searches within the radius, and the merge of in-range lists is the
// in-range part of the merge.
func (s *ShardedStore) NearestWithinInto(q feature.Vector, k int, radius float64, dst []lsh.Neighbor) ([]lsh.Neighbor, error) {
	if len(s.shards) == 1 {
		c := &s.counters[0]
		c.lookups.Add(1)
		c.enter()
		out, err := s.shards[0].NearestWithinInto(q, k, radius, dst)
		c.exit()
		return out, err
	}
	sc := s.merge.Get().(*mergeScratch)
	defer s.merge.Put(sc)
	for i, sh := range s.shards {
		c := &s.counters[i]
		c.lookups.Add(1)
		c.enter()
		ns, err := sh.NearestWithinInto(q, k, radius, sc.bufs[i][:0])
		c.exit()
		if err != nil {
			return nil, err
		}
		// Globalize in place: within one shard local order is global
		// order (global = local*S + shard is monotone in local), so
		// the list stays sorted under (distance, global ID).
		for j := range ns {
			ns[j].ID = s.global(i, ns[j].ID)
		}
		sc.bufs[i] = ns
		sc.pos[i] = 0
	}
	// K-way merge under the same total order the per-shard selectors
	// used, so the result equals one unsharded selection.
	out := dst[:0]
	for len(out) < k {
		best := -1
		for i := range sc.bufs {
			if sc.pos[i] >= len(sc.bufs[i]) {
				continue
			}
			if best < 0 || lsh.NeighborWorse(sc.bufs[best][sc.pos[best]], sc.bufs[i][sc.pos[i]]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, sc.bufs[best][sc.pos[best]])
		sc.pos[best]++
	}
	return out, nil
}

// Len returns the live entry count across shards.
func (s *ShardedStore) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Evictions returns total capacity evictions across shards.
func (s *ShardedStore) Evictions() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Evictions()
	}
	return n
}

// Expiries returns total TTL expiries across shards.
func (s *ShardedStore) Expiries() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Expiries()
	}
	return n
}

// Stats aggregates occupancy/churn across shards.
func (s *ShardedStore) Stats() StoreStats {
	agg := StoreStats{BySource: make(map[string]int)}
	for _, sh := range s.shards {
		st := sh.Stats()
		agg.Entries += st.Entries
		agg.Evictions += st.Evictions
		agg.Expiries += st.Expiries
		agg.TotalHits += st.TotalHits
		agg.SavedTotal += st.SavedTotal
		for src, n := range st.BySource {
			agg.BySource[src] += n
		}
	}
	return agg
}

// ShardStats returns one occupancy/contention snapshot per shard.
func (s *ShardedStore) ShardStats() []metrics.ShardStat {
	out := make([]metrics.ShardStat, len(s.shards))
	for i, sh := range s.shards {
		c := &s.counters[i]
		out[i] = metrics.ShardStat{
			Shard:     i,
			Entries:   sh.Len(),
			Lookups:   c.lookups.Load(),
			Inserts:   c.inserts.Load(),
			Contended: c.contended.Load(),
		}
	}
	return out
}

// Snapshot returns copies of all live entries with global IDs.
func (s *ShardedStore) Snapshot() []Entry {
	var out []Entry
	for i, sh := range s.shards {
		for _, e := range sh.Snapshot() {
			e.ID = s.global(i, e.ID)
			out = append(out, e)
		}
	}
	return out
}

// Export writes all live entries in the shared snapshot format. Shard
// assignments are not persisted — the wire format carries entries, not
// topology — so a snapshot written by any store shape imports into any
// other, and re-importing re-routes each entry.
func (s *ShardedStore) Export(w io.Writer) error {
	entries := s.Snapshot()
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	enc := newSnapshotEncoder()
	for _, e := range entries {
		if err := enc.add(e); err != nil {
			return err
		}
	}
	return enc.writeTo(w)
}

// Import reads a snapshot and inserts its entries, each routed to its
// shard. Validation is all-or-nothing: a corrupt snapshot returns
// ErrCorruptSnapshot without touching any shard.
func (s *ShardedStore) Import(r io.Reader) (int, error) {
	in, err := readSnapshot(r)
	if err != nil {
		return 0, err
	}
	inserted := 0
	for i, e := range in.Entries {
		id, err := s.Insert(feature.Vector(e.Vec), e.Label, e.Confidence, e.Source,
			time.Duration(e.SavedCostMicros)*time.Microsecond)
		if err != nil {
			return inserted, fmt.Errorf("cachestore: import entry %d: %w", i, err)
		}
		shard, local := s.split(id)
		s.shards[shard].applyWireQuality(local, e)
		inserted++
	}
	return inserted, nil
}
