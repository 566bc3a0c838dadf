package lsh

import (
	"fmt"
	"math"
	"sync"

	"approxcache/internal/feature"
)

// ExactIndex is the exhaustive linear-scan baseline. It returns the true
// nearest neighbors and is used both as the exact-match-cache baseline
// component and as ground truth for LSH recall measurements.
//
// Vectors live in a dense flat arena kept compact by swap-with-last
// removal, so a query is one sequential sweep over contiguous memory
// with bounded top-k selection — no ID materialization, no map chase,
// and no allocation when the caller supplies a result buffer.
type ExactIndex struct {
	dim    int
	mu     sync.RWMutex
	arena  []float64 // slot s's vector at arena[s*dim:(s+1)*dim]
	slotID []ID      // parallel slot → ID
	idSlot map[ID]int32
}

var (
	_ IntoIndex    = (*ExactIndex)(nil)
	_ VectorSource = (*ExactIndex)(nil)
)

// NewExact builds an exact index over dim-dimensional vectors.
func NewExact(dim int) (*ExactIndex, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("lsh: dim must be positive, got %d", dim)
	}
	return &ExactIndex{dim: dim, idSlot: make(map[ID]int32)}, nil
}

// Len returns the number of indexed vectors.
func (x *ExactIndex) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.slotID)
}

// Insert adds (id, v), replacing any prior entry.
func (x *ExactIndex) Insert(id ID, v feature.Vector) error {
	if len(v) != x.dim {
		return fmt.Errorf("lsh: insert dim %d, index dim %d: %w",
			len(v), x.dim, feature.ErrDimensionMismatch)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	slot, ok := x.idSlot[id]
	if !ok {
		slot = int32(len(x.slotID))
		x.arena = append(x.arena, make([]float64, x.dim)...)
		x.slotID = append(x.slotID, id)
		x.idSlot[id] = slot
	}
	copy(x.arena[int(slot)*x.dim:(int(slot)+1)*x.dim], v)
	return nil
}

// Remove deletes id, compacting the arena by moving the last slot into
// the vacated one.
func (x *ExactIndex) Remove(id ID) {
	x.mu.Lock()
	defer x.mu.Unlock()
	slot, ok := x.idSlot[id]
	if !ok {
		return
	}
	last := int32(len(x.slotID) - 1)
	if slot != last {
		copy(x.arena[int(slot)*x.dim:(int(slot)+1)*x.dim],
			x.arena[int(last)*x.dim:(int(last)+1)*x.dim])
		moved := x.slotID[last]
		x.slotID[slot] = moved
		x.idSlot[moved] = slot
	}
	x.arena = x.arena[:int(last)*x.dim]
	x.slotID = x.slotID[:last]
	delete(x.idSlot, id)
}

// VectorInto copies id's vector out of the arena (see VectorSource).
func (x *ExactIndex) VectorInto(id ID, dst feature.Vector) (feature.Vector, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	slot, ok := x.idSlot[id]
	if !ok {
		return dst[:0], false
	}
	off := int(slot) * x.dim
	return append(dst[:0], x.arena[off:off+x.dim]...), true
}

// Nearest returns the true k nearest neighbors of q.
func (x *ExactIndex) Nearest(q feature.Vector, k int) ([]Neighbor, error) {
	return x.NearestInto(q, k, nil)
}

// NearestInto is Nearest writing into dst's backing array; with a
// caller-reused dst of capacity ≥ k the scan allocates nothing.
func (x *ExactIndex) NearestInto(q feature.Vector, k int, dst []Neighbor) ([]Neighbor, error) {
	return x.NearestWithinInto(q, k, math.Inf(1), dst)
}

// NearestWithinInto is NearestInto restricted to neighbors whose
// Distance is at most radius (see HyperplaneIndex.NearestWithinInto):
// the same sweep, dropping each vector as soon as it is out of range.
func (x *ExactIndex) NearestWithinInto(q feature.Vector, k int, radius float64, dst []Neighbor) ([]Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("lsh: k must be positive, got %d", k)
	}
	if len(q) != x.dim {
		return nil, fmt.Errorf("lsh: query dim %d, index dim %d: %w",
			len(q), x.dim, feature.ErrDimensionMismatch)
	}
	var sel kSelector
	sel.reset(k, dst[:0])
	x.mu.RLock()
	scanSlots(q, x.arena, x.dim, x.slotID, nil, len(x.slotID), &sel, sqBound(radius))
	x.mu.RUnlock()
	return finishWithin(&sel, radius), nil
}
