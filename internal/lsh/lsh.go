// Package lsh implements the approximate nearest-neighbor machinery the
// cache lookup path is built on: a random-hyperplane locality-sensitive
// hash index (k bits × L tables), an exact linear-scan baseline, and the
// homogenized-kNN vote (FoggyCache-style) that decides whether a cached
// result is trustworthy enough to reuse.
//
// The lookup path is the per-frame reuse check the whole system exists
// to make cheap, so both indexes are built for zero steady-state
// allocation: vectors live in a flat arena addressed by slot (no map
// chase inside distance loops), hyperplanes are one contiguous matrix
// swept by a strided dot product, per-query candidate dedup is an
// epoch-stamped visited array drawn from a pool, and ranking is bounded
// top-k selection instead of a full sort, fed by one exact scan kernel
// that stops scoring a candidate once the caller's radius or the running
// k-th best rules it out (scan.go).
//
// Each index guards its state with one sync.RWMutex: a lookup holds the
// read lock across gather + scan, a mutation holds the write lock.
package lsh

import (
	"fmt"
	"math"
	"sync"

	"approxcache/internal/feature"
)

// ID identifies an indexed vector. IDs are assigned by the caller
// (typically the cache store).
type ID uint64

// Neighbor is one kNN search result.
type Neighbor struct {
	ID       ID
	Distance float64
}

// Index is the nearest-neighbor interface shared by the LSH index and
// the exact baseline. Implementations are safe for concurrent use.
type Index interface {
	// Insert adds (id, v) to the index, replacing any previous vector
	// under the same id.
	Insert(id ID, v feature.Vector) error
	// Remove deletes id from the index. Removing an absent id is a
	// no-op.
	Remove(id ID)
	// Nearest returns up to k neighbors of q ordered by increasing
	// distance.
	Nearest(q feature.Vector, k int) ([]Neighbor, error)
	// Len returns the number of indexed vectors.
	Len() int
}

// IntoIndex is implemented by indexes whose lookup can write results
// into a caller-provided buffer, so steady-state queries allocate
// nothing.
type IntoIndex interface {
	Index
	// NearestInto is Nearest appending into dst's backing array
	// (which may be nil). The returned slice aliases dst when its
	// capacity suffices.
	NearestInto(q feature.Vector, k int, dst []Neighbor) ([]Neighbor, error)
}

// VectorSource is implemented by indexes that can hand back the vector
// they hold under an id (every in-tree one can). A caller that inserted
// (id, v) need not keep its own copy of v: the index already has one.
// It is deliberately not part of Index, so a wrapper that does not know
// the method hides it and callers fall back to keeping their own copy.
type VectorSource interface {
	// VectorInto copies id's vector into dst's backing array (which may
	// be nil) and reports whether id is indexed. The result is
	// bit-identical to the vector last inserted under id.
	VectorInto(id ID, dst feature.Vector) (feature.Vector, bool)
}

// HyperplaneIndex is a random-hyperplane (SimHash) LSH index. Each of
// the L tables hashes a vector to a B-bit signature whose bits are the
// signs of projections onto B random hyperplanes; a query is compared
// only against vectors that collide in at least one table.
type HyperplaneIndex struct {
	dim    int
	bits   int
	tables int

	// fam is the hash function: hyperplanes and signature memo.
	// Immutable but for the memo, which locks its own slots.
	fam *hashFamily

	// mu guards everything below: lookups hold it for reading across
	// gather + scan, Insert/Remove for writing.
	mu sync.RWMutex
	// buckets[t] maps a table-t signature to the arena slots holding
	// colliding vectors. Buckets hold slots, not IDs, so the distance
	// loop reads the arena directly.
	buckets []map[uint64][]int32
	// arena holds slot s's vector at arena[s*dim:(s+1)*dim]. Freed
	// slots are recycled through free; slotID/slotSig are parallel
	// per-slot metadata (slotSig[s*tables+t] is slot s's signature in
	// table t).
	arena   []float64
	slotID  []ID
	slotSig []uint64
	free    []int32
	// idSlot maps an ID to its slot. Only Insert/Remove/VectorInto touch
	// it; the query path never chases it.
	idSlot map[ID]int32

	scratch sync.Pool // *queryScratch
	idBuf   sync.Pool // *[]ID, gather buffer for Candidates
}

var (
	_ IntoIndex    = (*HyperplaneIndex)(nil)
	_ VectorSource = (*HyperplaneIndex)(nil)
)

// queryScratch is the reusable per-query state: an epoch-stamped
// visited array replacing the old per-query map[ID]struct{} dedup.
// Each concurrent query checks out its own scratch from the pool.
type queryScratch struct {
	visited []uint32
	epoch   uint32

	// cands is the gathered candidate slot list of the query in flight
	// (capacity: one entry per slot, like visited).
	cands []int32
	// sigs is the query's signature in every table.
	sigs []uint64
}

// begin readies the scratch for one query over nslots slots.
func (sc *queryScratch) begin(nslots int) {
	if cap(sc.visited) < nslots {
		sc.visited = make([]uint32, nslots)
		sc.epoch = 0
		// Every slot can be a candidate at most once: sized together, the
		// gather never grows its list.
		sc.cands = make([]int32, 0, nslots)
	}
	sc.visited = sc.visited[:nslots]
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stamps from 2^32 queries ago linger
		clear(sc.visited)
		sc.epoch = 1
	}
}

// MaxSignatureBits bounds the per-table signature width so it fits a
// uint64 bucket key.
const MaxSignatureBits = 64

// NewHyperplane builds an LSH index over dim-dimensional vectors with
// bits hyperplanes per table and tables hash tables, seeding all
// hyperplanes deterministically from seed. A lookup probes the query's
// own bucket in every table and scores the union at full precision.
func NewHyperplane(dim, bits, tables int, seed int64) (*HyperplaneIndex, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("lsh: dim must be positive, got %d", dim)
	}
	if bits <= 0 || bits > MaxSignatureBits {
		return nil, fmt.Errorf("lsh: bits must be in [1,%d], got %d", MaxSignatureBits, bits)
	}
	if tables <= 0 {
		return nil, fmt.Errorf("lsh: tables must be positive, got %d", tables)
	}
	x := &HyperplaneIndex{
		dim:     dim,
		bits:    bits,
		tables:  tables,
		fam:     newHashFamily(dim, bits, tables, seed),
		buckets: make([]map[uint64][]int32, tables),
		idSlot:  make(map[ID]int32),
	}
	for t := range x.buckets {
		x.buckets[t] = make(map[uint64][]int32)
	}
	return x, nil
}

// Dim returns the index dimensionality.
func (x *HyperplaneIndex) Dim() int { return x.dim }

// Bits returns the per-table signature width.
func (x *HyperplaneIndex) Bits() int { return x.bits }

// Tables returns the hash-table count.
func (x *HyperplaneIndex) Tables() int { return x.tables }

// Len returns the number of indexed vectors. Like ExactIndex.Len it
// takes the read lock — uncontended that is two atomic operations and no
// allocation — so it waits for a writer in progress.
func (x *HyperplaneIndex) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.idSlot)
}

// signature hashes v in table t. Caller must have validated dimensions.
//
// Bits are computed four at a time: the four dot products are
// independent chains, so interleaving them hides floating-point add
// latency. Each chain still sums dimensions in ascending order, so
// every bit is identical to the one-row-at-a-time computation.
func (f *hashFamily) signature(t int, v feature.Vector) uint64 {
	var sig uint64
	n := f.dim
	b := 0
	for ; b+4 <= f.bits; b += 4 {
		off := (t*f.bits + b) * n
		r0 := f.planes[off : off+n : off+n]
		// Re-slicing everything to len(r0) lets the compiler drop the
		// per-dimension bounds checks inside the loop.
		r1 := f.planes[off+n : off+2*n : off+2*n][:len(r0)]
		r2 := f.planes[off+2*n : off+3*n : off+3*n][:len(r0)]
		r3 := f.planes[off+3*n : off+4*n : off+4*n][:len(r0)]
		vs := v[:len(r0)]
		var d0, d1, d2, d3 float64
		for d, p0 := range r0 {
			vv := vs[d]
			d0 += p0 * vv
			d1 += r1[d] * vv
			d2 += r2[d] * vv
			d3 += r3[d] * vv
		}
		if d0 >= 0 {
			sig |= 1 << uint(b)
		}
		if d1 >= 0 {
			sig |= 1 << uint(b+1)
		}
		if d2 >= 0 {
			sig |= 1 << uint(b+2)
		}
		if d3 >= 0 {
			sig |= 1 << uint(b+3)
		}
	}
	for ; b < f.bits; b++ {
		row := f.planeRow(t, b)
		var dot float64
		for d, p := range row {
			dot += p * v[d]
		}
		if dot >= 0 {
			sig |= 1 << uint(b)
		}
	}
	return sig
}

// slotVec returns slot s's vector as a view into the arena.
func (x *HyperplaneIndex) slotVec(s int32) feature.Vector {
	off := int(s) * x.dim
	return feature.Vector(x.arena[off : off+x.dim : off+x.dim])
}

// allocSlotLocked returns a free arena slot, growing the arena if none
// is available.
func (x *HyperplaneIndex) allocSlotLocked() int32 {
	if n := len(x.free); n > 0 {
		s := x.free[n-1]
		x.free = x.free[:n-1]
		return s
	}
	s := int32(len(x.slotID))
	x.arena = append(x.arena, make([]float64, x.dim)...)
	x.slotID = append(x.slotID, 0)
	x.slotSig = append(x.slotSig, make([]uint64, x.tables)...)
	return s
}

// Insert adds (id, v) to all tables, replacing any prior entry for id.
func (x *HyperplaneIndex) Insert(id ID, v feature.Vector) error {
	if len(v) != x.dim {
		return fmt.Errorf("lsh: insert dim %d, index dim %d: %w",
			len(v), x.dim, feature.ErrDimensionMismatch)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if slot, exists := x.idSlot[id]; exists {
		x.removeLocked(id, slot)
	}
	slot := x.allocSlotLocked()
	copy(x.arena[int(slot)*x.dim:], v)
	x.slotID[slot] = id
	sigs := x.slotSig[int(slot)*x.tables : (int(slot)+1)*x.tables]
	x.fam.signatures(x.slotVec(slot), sigs)
	for t, sig := range sigs {
		x.buckets[t][sig] = append(x.buckets[t][sig], slot)
	}
	x.idSlot[id] = slot
	return nil
}

// Remove deletes id from all tables.
func (x *HyperplaneIndex) Remove(id ID) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if slot, ok := x.idSlot[id]; ok {
		x.removeLocked(id, slot)
	}
}

// VectorInto copies id's vector out of the arena (see VectorSource).
func (x *HyperplaneIndex) VectorInto(id ID, dst feature.Vector) (feature.Vector, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	slot, ok := x.idSlot[id]
	if !ok {
		return dst[:0], false
	}
	return append(dst[:0], x.slotVec(slot)...), true
}

// bucketShrinkMin is the smallest bucket capacity the shrink heuristic
// bothers reallocating; below it the retained memory is trivial.
const bucketShrinkMin = 16

// removeLocked unlinks slot from every table's bucket and puts it on the
// free list. Caller holds mu for writing.
func (x *HyperplaneIndex) removeLocked(id ID, slot int32) {
	delete(x.idSlot, id)
	for t := 0; t < x.tables; t++ {
		sig := x.slotSig[int(slot)*x.tables+t]
		bucket := x.buckets[t][sig]
		for i, s := range bucket {
			if s == slot {
				last := len(bucket) - 1
				bucket[i] = bucket[last]
				bucket[last] = 0 // clear the swapped-from tail slot
				bucket = bucket[:last]
				break
			}
		}
		switch {
		case len(bucket) == 0:
			delete(x.buckets[t], sig)
		case cap(bucket) >= bucketShrinkMin && cap(bucket) >= 4*len(bucket):
			// Long churny runs otherwise retain grossly over-capacity
			// backing arrays for hot signatures.
			shrunk := make([]int32, len(bucket))
			copy(shrunk, bucket)
			x.buckets[t][sig] = shrunk
		default:
			x.buckets[t][sig] = bucket
		}
	}
	x.free = append(x.free, slot)
}

// getScratch checks out per-query scratch state.
func (x *HyperplaneIndex) getScratch() *queryScratch {
	if sc, ok := x.scratch.Get().(*queryScratch); ok {
		return sc
	}
	return new(queryScratch)
}

// Candidates returns the deduplicated union of bucket contents that q
// collides with across all tables, in first-collision order. The gather
// runs through CandidatesInto on a pooled buffer, so the only per-call
// allocation is the exact-size result slice handed to the caller.
func (x *HyperplaneIndex) Candidates(q feature.Vector) ([]ID, error) {
	bufp, _ := x.idBuf.Get().(*[]ID)
	if bufp == nil {
		bufp = new([]ID)
	}
	ids, err := x.CandidatesInto(q, (*bufp)[:0])
	if err != nil {
		x.idBuf.Put(bufp)
		return nil, err
	}
	out := make([]ID, len(ids))
	copy(out, ids)
	*bufp = ids[:0] // keep any growth for the next caller
	x.idBuf.Put(bufp)
	return out, nil
}

// CandidatesInto is Candidates appending into dst's backing array (which
// may be nil). With a caller-reused dst of sufficient capacity the whole
// gather performs no allocation: the dedup state is pooled and the IDs
// land in caller-owned memory. The returned set is exactly the
// population NearestInto scores.
func (x *HyperplaneIndex) CandidatesInto(q feature.Vector, dst []ID) ([]ID, error) {
	if len(q) != x.dim {
		return nil, fmt.Errorf("lsh: query dim %d, index dim %d: %w",
			len(q), x.dim, feature.ErrDimensionMismatch)
	}
	sc := x.getScratch()
	defer x.scratch.Put(sc)
	x.mu.RLock()
	defer x.mu.RUnlock()
	x.gather(q, sc)
	out := dst[:0]
	for _, slot := range sc.cands {
		out = append(out, x.slotID[slot])
	}
	return out, nil
}

// gather fills sc.cands with the slots a lookup of q must score: the
// union of q's bucket in every table, deduplicated, in first-collision
// order. The caller holds mu.
func (x *HyperplaneIndex) gather(q feature.Vector, sc *queryScratch) {
	sc.begin(len(x.slotID))
	if cap(sc.sigs) < x.tables {
		sc.sigs = make([]uint64, x.tables)
	}
	sigs := sc.sigs[:x.tables]
	x.fam.signatures(q, sigs)
	cands := sc.cands[:0]
	for t, sig := range sigs {
		for _, slot := range x.buckets[t][sig] {
			if sc.visited[slot] == sc.epoch {
				continue
			}
			sc.visited[slot] = sc.epoch
			cands = append(cands, slot)
		}
	}
	sc.cands = cands
}

// Nearest returns up to k approximate nearest neighbors of q, drawn
// from the LSH candidate set and ordered by Euclidean distance.
func (x *HyperplaneIndex) Nearest(q feature.Vector, k int) ([]Neighbor, error) {
	return x.NearestInto(q, k, nil)
}

// NearestInto is Nearest writing into dst's backing array. With a
// caller-reused dst of capacity ≥ k, a warm-index lookup performs no
// allocation: signatures, candidate dedup, distances, and top-k
// selection all run on pooled or caller-owned memory.
func (x *HyperplaneIndex) NearestInto(q feature.Vector, k int, dst []Neighbor) ([]Neighbor, error) {
	return x.NearestWithinInto(q, k, math.Inf(1), dst)
}

// NearestWithinInto is NearestInto restricted to a search radius: it
// returns exactly the neighbors of NearestInto(q, k) whose Distance is
// at most radius (an infinite or NaN radius restricts nothing). Telling
// the scan the radius lets it stop scoring a candidate as soon as its
// partial distance is out of range (see scan.go), which is most of the
// arithmetic when buckets are crowded with far vectors.
func (x *HyperplaneIndex) NearestWithinInto(q feature.Vector, k int, radius float64, dst []Neighbor) ([]Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("lsh: k must be positive, got %d", k)
	}
	if len(q) != x.dim {
		return nil, fmt.Errorf("lsh: query dim %d, index dim %d: %w",
			len(q), x.dim, feature.ErrDimensionMismatch)
	}
	sc := x.getScratch()
	defer x.scratch.Put(sc)
	var sel kSelector
	sel.reset(k, dst[:0])
	x.mu.RLock()
	x.gather(q, sc)
	scanSlots(q, x.arena, x.dim, x.slotID, sc.cands, len(sc.cands), &sel, sqBound(radius))
	x.mu.RUnlock()
	return finishWithin(&sel, radius), nil
}

// Stats describes index occupancy, used by the LSH ablation experiment.
type Stats struct {
	Items            int
	Tables           int
	Bits             int
	Buckets          int
	MaxBucket        int
	MeanBucket       float64
	MeanCandidateSet float64 // expected candidate-set size for an indexed item
}

// Stats returns occupancy statistics. It walks every bucket under the
// read lock, so it delays writers for the length of the walk.
func (x *HyperplaneIndex) Stats() Stats {
	x.mu.RLock()
	defer x.mu.RUnlock()
	s := Stats{Items: len(x.idSlot), Tables: x.tables, Bits: x.bits}
	var total int
	for t := 0; t < x.tables; t++ {
		for _, b := range x.buckets[t] {
			s.Buckets++
			total += len(b)
			if len(b) > s.MaxBucket {
				s.MaxBucket = len(b)
			}
		}
	}
	if s.Buckets > 0 {
		s.MeanBucket = float64(total) / float64(s.Buckets)
	}
	if s.Items > 0 {
		// For each item, its candidate set is at least the sizes of
		// its own buckets; use the mean bucket size per table as an
		// estimate of per-query work.
		s.MeanCandidateSet = s.MeanBucket * float64(x.tables)
	}
	return s
}
