package lsh

import (
	"fmt"
	"sync"
	"sync/atomic"

	"approxcache/internal/feature"
)

// NewHyperplaneCentered is NewHyperplane with projections centered on
// center: bits are the signs of ⟨plane, v−center⟩. Centering matters
// when the data lives off-origin (image descriptors are all-positive,
// so uncentered random hyperplanes see correlated signs and pile items
// into a few buckets).
func NewHyperplaneCentered(dim, bits, tables int, seed int64, center feature.Vector) (*HyperplaneIndex, error) {
	return NewHyperplaneCenteredTuned(dim, bits, tables, seed, center, Tuning{})
}

// NewHyperplaneCenteredTuned is NewHyperplaneCentered with an explicit
// candidate-pipeline tuning. The center applies to sketch projections
// too, so sketches stay meaningful for off-origin data.
func NewHyperplaneCenteredTuned(dim, bits, tables int, seed int64, center feature.Vector, tun Tuning) (*HyperplaneIndex, error) {
	x, err := NewHyperplaneTuned(dim, bits, tables, seed, tun)
	if err != nil {
		return nil, err
	}
	if center != nil {
		if len(center) != dim {
			return nil, fmt.Errorf("lsh: center dim %d, index dim %d: %w",
				len(center), dim, feature.ErrDimensionMismatch)
		}
		x.fam.center = center.Clone()
	}
	return x, nil
}

// AdaptiveConfig tunes the adaptive index's rebuild policy.
type AdaptiveConfig struct {
	// Dim, Bits, Tables, Seed shape the underlying hyperplane index.
	Dim, Bits, Tables int
	Seed              int64
	// CheckEvery is how many inserts pass between skew checks.
	CheckEvery int
	// SkewThreshold triggers a rebuild when the largest bucket holds
	// more than this fraction of all items (0 < t <= 1).
	SkewThreshold float64
	// Tuning configures the candidate pipeline of the underlying index
	// (and of every rebuilt index). Zero value = classic pipeline.
	Tuning Tuning
}

// Validate reports whether the configuration is usable.
func (c AdaptiveConfig) Validate() error {
	if c.Dim <= 0 || c.Bits <= 0 || c.Bits > MaxSignatureBits || c.Tables <= 0 {
		return fmt.Errorf("lsh: bad adaptive shape dim=%d bits=%d tables=%d",
			c.Dim, c.Bits, c.Tables)
	}
	if c.CheckEvery <= 0 {
		return fmt.Errorf("lsh: CheckEvery must be positive, got %d", c.CheckEvery)
	}
	if c.SkewThreshold <= 0 || c.SkewThreshold > 1 {
		return fmt.Errorf("lsh: SkewThreshold must be in (0,1], got %v", c.SkewThreshold)
	}
	return c.Tuning.Validate()
}

// DefaultAdaptiveConfig returns the production rebuild policy for a
// dim-dimensional index.
func DefaultAdaptiveConfig(dim int) AdaptiveConfig {
	return AdaptiveConfig{
		Dim:           dim,
		Bits:          12,
		Tables:        4,
		Seed:          1,
		CheckEvery:    64,
		SkewThreshold: 0.5,
	}
}

// AdaptiveIndex wraps a hyperplane index and rebuilds it — re-seeding
// the hyperplanes and centering projections on the observed data mean —
// whenever bucket occupancy skews past the configured threshold. This
// is the FoggyCache-style adaptive LSH: the index tracks the data
// distribution instead of assuming a centered one.
//
// Readers load the current inner index through an atomic pointer and
// run its lookup (which takes that index's read lock); a rebuild
// constructs the replacement off to the side and publishes it with one
// pointer store. Only writers take the adaptive mutex, and a rebuild
// completes entirely under it, so no insert can slip between the item
// snapshot and the swap. Lock order: AdaptiveIndex.mu → inner mu.
type AdaptiveIndex struct {
	cfg AdaptiveConfig

	// mu serializes writers (Insert/Remove) and rebuilds. Readers
	// never touch it.
	mu      sync.Mutex
	inner   atomic.Pointer[HyperplaneIndex]
	inserts int
	// rebuilds is read by the stats path without the writer mutex.
	rebuilds atomic.Int64
}

var (
	_ Index        = (*AdaptiveIndex)(nil)
	_ VectorSource = (*AdaptiveIndex)(nil)
)

// NewAdaptive builds an adaptive index.
func NewAdaptive(cfg AdaptiveConfig) (*AdaptiveIndex, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inner, err := NewHyperplaneTuned(cfg.Dim, cfg.Bits, cfg.Tables, cfg.Seed, cfg.Tuning)
	if err != nil {
		return nil, err
	}
	a := &AdaptiveIndex{cfg: cfg}
	a.inner.Store(inner)
	return a, nil
}

// Rebuilds returns how many times the index has re-tuned itself. It
// takes no lock: stats polling can never stall a rebuild or a lookup.
func (a *AdaptiveIndex) Rebuilds() int {
	return int(a.rebuilds.Load())
}

// Len returns the number of indexed vectors.
func (a *AdaptiveIndex) Len() int {
	return a.inner.Load().Len()
}

// Stats returns the current underlying occupancy statistics.
func (a *AdaptiveIndex) Stats() Stats {
	return a.inner.Load().Stats()
}

// Insert adds (id, v), possibly triggering a rebuild. The whole
// operation — insert, skew check, rebuild — runs under the writer
// mutex, so a rebuild can never lose a concurrent insert.
func (a *AdaptiveIndex) Insert(id ID, v feature.Vector) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.inner.Load().Insert(id, v); err != nil {
		return err
	}
	a.inserts++
	if a.inserts%a.cfg.CheckEvery == 0 {
		a.maybeRebuildLocked()
	}
	return nil
}

// Remove deletes id.
func (a *AdaptiveIndex) Remove(id ID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.inner.Load().Remove(id)
}

// VectorInto copies id's vector out of the current inner index. It
// takes the writer mutex, so it reads either side of a rebuild, never
// the middle of one.
func (a *AdaptiveIndex) VectorInto(id ID, dst feature.Vector) (feature.Vector, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inner.Load().VectorInto(id, dst)
}

// Nearest returns up to k approximate nearest neighbors of q.
func (a *AdaptiveIndex) Nearest(q feature.Vector, k int) ([]Neighbor, error) {
	return a.inner.Load().Nearest(q, k)
}

// NearestInto is Nearest writing into dst's backing array.
func (a *AdaptiveIndex) NearestInto(q feature.Vector, k int, dst []Neighbor) ([]Neighbor, error) {
	return a.inner.Load().NearestInto(q, k, dst)
}

// NearestWithinInto is the radius-bounded NearestInto.
func (a *AdaptiveIndex) NearestWithinInto(q feature.Vector, k int, radius float64, dst []Neighbor) ([]Neighbor, error) {
	return a.inner.Load().NearestWithinInto(q, k, radius, dst)
}

// Candidates returns q's LSH candidate set.
func (a *AdaptiveIndex) Candidates(q feature.Vector) ([]ID, error) {
	return a.inner.Load().Candidates(q)
}

// CandidatesInto is Candidates appending into dst's backing array.
func (a *AdaptiveIndex) CandidatesInto(q feature.Vector, dst []ID) ([]ID, error) {
	return a.inner.Load().CandidatesInto(q, dst)
}

// maybeRebuildLocked checks occupancy skew and rebuilds if needed.
// Caller holds mu; readers keep running against the old inner index
// until the single pointer store below publishes the replacement.
func (a *AdaptiveIndex) maybeRebuildLocked() {
	inner := a.inner.Load()
	st := inner.Stats()
	if st.Items < a.cfg.CheckEvery {
		return
	}
	if float64(st.MaxBucket) <= a.cfg.SkewThreshold*float64(st.Items) {
		return
	}

	// Rebuild: fresh hyperplanes, centered on the data mean.
	items := inner.Items()
	if len(items) == 0 {
		return
	}
	center := make(feature.Vector, a.cfg.Dim)
	for _, it := range items {
		for d := range center {
			center[d] += it.Vec[d]
		}
	}
	for d := range center {
		center[d] /= float64(len(items))
	}

	seed := a.cfg.Seed + (a.rebuilds.Load()+1)*7919
	fresh, err := NewHyperplaneCenteredTuned(a.cfg.Dim, a.cfg.Bits, a.cfg.Tables, seed, center, a.cfg.Tuning)
	if err != nil {
		return // static config was validated; unreachable in practice
	}
	for _, it := range items {
		if err := fresh.Insert(it.ID, it.Vec); err != nil {
			return
		}
	}
	a.inner.Store(fresh)
	a.rebuilds.Add(1)
}

// Item is one indexed (id, vector) pair.
type Item struct {
	ID  ID
	Vec feature.Vector
}

// Items returns copies of all indexed vectors.
func (x *HyperplaneIndex) Items() []Item {
	x.mu.RLock()
	defer x.mu.RUnlock()
	out := make([]Item, 0, len(x.idSlot))
	for id, slot := range x.idSlot {
		out = append(out, Item{ID: id, Vec: x.slotVec(slot).Clone()})
	}
	return out
}
