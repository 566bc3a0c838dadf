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
// Reads are also lock-free: writers publish immutable snapshots of the
// bucket state through an atomic pointer and reclaim recycled arena
// memory only after a grace period (see epoch.go), so a lookup never
// takes a mutex and concurrent readers never serialize on a shared
// lock word.
package lsh

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"

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

	// planes is the flattened hyperplane matrix: hyperplane b of table
	// t occupies planes[(t*bits+b)*dim : (t*bits+b+1)*dim], so a
	// signature is one strided sweep over contiguous memory.
	planes []float64
	// center, when non-nil, is subtracted from vectors before
	// projection (see NewHyperplaneCentered).
	center feature.Vector

	// tun configures the candidate pipeline (multi-probe, sketch
	// prefilter, quantized re-rank). The zero value keeps the classic
	// exact-bucket path byte-for-byte.
	tun Tuning
	// sketchPlanes is the dedicated sketch hyperplane matrix (row b at
	// [b*dim:(b+1)*dim]); sketchWords = SketchBits/64 is the packed
	// sketch width. Both are nil/0 when the sketch is off.
	sketchPlanes []float64
	sketchWords  int

	// wmu serializes writers (insert/remove/import). Readers never
	// touch it: they pin the published view below.
	wmu sync.Mutex
	// sides are the TWO bucket instances of the left-right scheme.
	// sides[i][t] maps a table-t signature to the arena slots holding
	// colliding vectors. Buckets hold slots, not IDs, so the distance
	// loop reads the arena directly. Exactly one side is referenced by
	// the published view at any time; the other is writer-private and
	// receives each mutation first. The two sides never share bucket
	// backing arrays (each grows its slices independently), so
	// in-place swap-deletes on the writer-private side cannot be
	// observed through the published one.
	sides [2][]map[uint64][]int32
	// active is the side the current view publishes (writer-owned).
	active int
	// arena holds slot s's vector at arena[s*dim:(s+1)*dim]. Freed
	// slots are recycled through free — but only after the grace
	// period proves no reader still holds a view referencing them;
	// slotID/slotSig are parallel per-slot metadata (slotSig[s*tables+t]
	// is slot s's signature in table t).
	arena   []float64
	slotID  []ID
	slotSig []uint64
	free    []int32
	// Tuned-pipeline per-slot arenas, parallel to arena: sketch holds
	// slot s's packed sketch at [s*sketchWords:(s+1)*sketchWords],
	// codes its int8 quantized copy at [s*dim:(s+1)*dim], quant its
	// quantization map. Empty when the corresponding mechanism is off.
	sketch []uint64
	codes  []int8
	quant  []feature.Quant
	// idSlot maps an ID to its slot. Only Insert/Remove touch it; the
	// query path never chases it.
	idSlot map[ID]int32

	// view is the published snapshot every reader runs against; epoch
	// counts publications (diagnostics and tests); arriveAt selects
	// which read indicator new readers stamp (see epoch.go).
	view     atomic.Pointer[indexView]
	epoch    atomic.Uint64
	arriveAt atomic.Uint32
	readers  [2]readIndicator
	// stripeSeq hands each new query scratch its indicator stripe.
	stripeSeq atomic.Uint32

	scratch sync.Pool // *queryScratch
	idBuf   sync.Pool // *[]ID, gather buffer for Candidates
}

var (
	_ IntoIndex    = (*HyperplaneIndex)(nil)
	_ VectorSource = (*HyperplaneIndex)(nil)
)

// indexView is one published snapshot of the index: the active bucket
// side plus the slice headers of every per-slot arena as of
// publication. All fields are immutable for the lifetime of the view
// from a reader's perspective — the buckets maps are only mutated
// again after the grace period drains every reader pinned to this
// view, arena slots referenced by these buckets are only overwritten
// after the same grace period, and growth reallocations leave the
// captured backing arrays untouched.
type indexView struct {
	buckets []map[uint64][]int32
	arena   []float64
	slotID  []ID
	sketch  []uint64
	codes   []int8
	quant   []feature.Quant
	live    int
}

// slotCodes returns slot s's int8 code vector within the snapshot.
func (v *indexView) slotCodes(dim int, s int32) []int8 {
	off := int(s) * dim
	return v.codes[off : off+dim : off+dim]
}

// pin stamps the read indicator and loads the current snapshot. The
// arrival MUST precede the view load (see epoch.go invariant 1);
// callers pass the same stripe to unpin.
func (x *HyperplaneIndex) pin(stripe uint32) (*indexView, uint32) {
	vi := x.arriveAt.Load()
	x.readers[vi&1].arrive(stripe)
	return x.view.Load(), vi
}

// unpin departs the indicator pinned by pin.
func (x *HyperplaneIndex) unpin(vi, stripe uint32) {
	x.readers[vi&1].depart(stripe)
}

// publishLocked runs one write round: apply mutate to the inactive
// side, publish it as the new snapshot, advance the epoch, wait the
// grace period for every reader of the old snapshot to depart, then
// apply the same mutation to the retired side so both instances
// converge. On return no reader holds the previous snapshot, so the
// caller may recycle any slots the mutation retired. Caller holds wmu.
func (x *HyperplaneIndex) publishLocked(mutate func(side []map[uint64][]int32)) {
	next := 1 - x.active
	mutate(x.sides[next])
	x.view.Store(&indexView{
		buckets: x.sides[next],
		arena:   x.arena,
		slotID:  x.slotID,
		sketch:  x.sketch,
		codes:   x.codes,
		quant:   x.quant,
		live:    len(x.idSlot),
	})
	x.epoch.Add(1)
	x.active = next
	// Grace period: drain the indicator new readers are no longer
	// arriving at, flip arrivals, then drain the other. Every reader
	// that could have loaded the previous snapshot arrived before the
	// publish above and is therefore covered by one of the two waits.
	vi := x.arriveAt.Load()
	x.readers[1-vi&1].wait()
	x.arriveAt.Store(1 - vi&1)
	x.readers[vi&1].wait()
	mutate(x.sides[1-next])
}

// queryScratch is the reusable per-query state: an epoch-stamped
// visited array replacing the old per-query map[ID]struct{} dedup.
// Each concurrent query checks out its own scratch from the pool.
type queryScratch struct {
	visited []uint32
	epoch   uint32
	// stripe is this scratch's read-indicator stripe (epoch.go).
	// sync.Pool is per-P, so concurrent readers hold distinct
	// scratches and therefore stamp distinct stripes.
	stripe uint32

	// Tuned-pipeline scratch, sized lazily on first tuned lookup:
	// margins holds per-bit |projection| for the probed table, sorted
	// and order back the probe generator's margin argsort, heap its
	// perturbation-set frontier, qcodes the query's int8 codes, and
	// approx the quantized-stage selection buffer.
	margins []float64
	sorted  []float64
	order   []int
	heap    []probeSet
	qcodes  []int8
	approx  []Neighbor

	// cands is the gathered candidate slot list of the query in flight
	// (capacity: one entry per slot, like visited).
	cands []int32
}

// ensureTuned sizes the tuned-pipeline scratch for an index with the
// given signature width and dimensionality.
func (sc *queryScratch) ensureTuned(bits, dim int) {
	if cap(sc.margins) < bits {
		sc.margins = make([]float64, bits)
		sc.sorted = make([]float64, bits)
		sc.order = make([]int, bits)
	}
	sc.margins = sc.margins[:bits]
	sc.sorted = sc.sorted[:bits]
	sc.order = sc.order[:bits]
	if cap(sc.qcodes) < dim {
		sc.qcodes = make([]int8, dim)
	}
	sc.qcodes = sc.qcodes[:dim]
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
// hyperplanes deterministically from seed. The candidate pipeline is
// the classic one: exact-bucket probing, full-precision distances.
func NewHyperplane(dim, bits, tables int, seed int64) (*HyperplaneIndex, error) {
	return NewHyperplaneTuned(dim, bits, tables, seed, Tuning{})
}

// NewHyperplaneTuned is NewHyperplane with an explicit candidate
// pipeline tuning (multi-probe, sketch prefilter, quantized re-rank).
// A zero Tuning reproduces NewHyperplane exactly: the table hyperplanes
// are drawn first and identically regardless of tuning, and the sketch
// hyperplanes come from a separate RNG derived from seed, so enabling
// the sketch never perturbs signatures.
func NewHyperplaneTuned(dim, bits, tables int, seed int64, tun Tuning) (*HyperplaneIndex, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("lsh: dim must be positive, got %d", dim)
	}
	if bits <= 0 || bits > MaxSignatureBits {
		return nil, fmt.Errorf("lsh: bits must be in [1,%d], got %d", MaxSignatureBits, bits)
	}
	if tables <= 0 {
		return nil, fmt.Errorf("lsh: tables must be positive, got %d", tables)
	}
	if err := tun.Validate(); err != nil {
		return nil, err
	}
	tun = tun.normalize()
	rng := rand.New(rand.NewSource(seed))
	x := &HyperplaneIndex{
		dim:         dim,
		bits:        bits,
		tables:      tables,
		planes:      make([]float64, tables*bits*dim),
		idSlot:      make(map[ID]int32),
		tun:         tun,
		sketchWords: tun.SketchBits / 64,
	}
	for side := range x.sides {
		x.sides[side] = make([]map[uint64][]int32, tables)
		for t := 0; t < tables; t++ {
			x.sides[side][t] = make(map[uint64][]int32)
		}
	}
	x.view.Store(&indexView{buckets: x.sides[0]})
	// Draw order (table, bit, dim) is part of the index's identity:
	// the same seed must yield the same hyperplanes across versions.
	for t := 0; t < tables; t++ {
		for b := 0; b < bits; b++ {
			row := x.planeRow(t, b)
			for d := range row {
				row[d] = rng.NormFloat64()
			}
		}
	}
	if tun.SketchBits > 0 {
		srng := rand.New(rand.NewSource(seed ^ sketchSeedMix))
		x.sketchPlanes = make([]float64, tun.SketchBits*dim)
		for i := range x.sketchPlanes {
			x.sketchPlanes[i] = srng.NormFloat64()
		}
		// Make every sketch hyperplane zero-sum: ⟨p, v⟩ is then
		// invariant to a uniform offset of v. Image descriptors are
		// all-positive, and without this their shared mean dominates
		// every projection, correlating all sketch signs and defanging
		// the Hamming prefilter. Zero-summing is a fixed, data-free
		// transform, so sketches stay a deterministic function of
		// (seed, SketchBits, v).
		for b := 0; b < tun.SketchBits; b++ {
			row := x.sketchPlanes[b*dim : (b+1)*dim]
			var m float64
			for _, p := range row {
				m += p
			}
			m /= float64(dim)
			for d := range row {
				row[d] -= m
			}
		}
	}
	return x, nil
}

// TuningConfig returns the index's normalized candidate-pipeline
// tuning.
func (x *HyperplaneIndex) TuningConfig() Tuning { return x.tun }

// planeRow returns hyperplane b of table t as a slice into the flat
// matrix.
func (x *HyperplaneIndex) planeRow(t, b int) []float64 {
	off := (t*x.bits + b) * x.dim
	return x.planes[off : off+x.dim : off+x.dim]
}

// Dim returns the index dimensionality.
func (x *HyperplaneIndex) Dim() int { return x.dim }

// Bits returns the per-table signature width.
func (x *HyperplaneIndex) Bits() int { return x.bits }

// Tables returns the hash-table count.
func (x *HyperplaneIndex) Tables() int { return x.tables }

// Len returns the number of indexed vectors. Lock-free: the count is
// an immutable field of the published snapshot.
func (x *HyperplaneIndex) Len() int {
	return x.view.Load().live
}

// Epoch returns the number of snapshots published so far (one per
// completed write round). Diagnostics and tests only.
func (x *HyperplaneIndex) Epoch() uint64 { return x.epoch.Load() }

// signature hashes v in table t. Caller must have validated dimensions.
//
// Bits are computed four at a time: the four dot products are
// independent chains, so interleaving them hides floating-point add
// latency. Each chain still sums dimensions in ascending order, so
// every bit is identical to the one-row-at-a-time computation.
func (x *HyperplaneIndex) signature(t int, v feature.Vector) uint64 {
	var sig uint64
	n := x.dim
	b := 0
	for ; b+4 <= x.bits; b += 4 {
		off := (t*x.bits + b) * n
		r0 := x.planes[off : off+n : off+n]
		// Re-slicing everything to len(r0) lets the compiler drop the
		// per-dimension bounds checks inside the loop.
		r1 := x.planes[off+n : off+2*n : off+2*n][:len(r0)]
		r2 := x.planes[off+2*n : off+3*n : off+3*n][:len(r0)]
		r3 := x.planes[off+3*n : off+4*n : off+4*n][:len(r0)]
		vs := v[:len(r0)]
		var d0, d1, d2, d3 float64
		if x.center == nil {
			for d, p0 := range r0 {
				vv := vs[d]
				d0 += p0 * vv
				d1 += r1[d] * vv
				d2 += r2[d] * vv
				d3 += r3[d] * vv
			}
		} else {
			ct := x.center[:len(r0)]
			for d, p0 := range r0 {
				c := vs[d] - ct[d]
				d0 += p0 * c
				d1 += r1[d] * c
				d2 += r2[d] * c
				d3 += r3[d] * c
			}
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
	for ; b < x.bits; b++ {
		row := x.planeRow(t, b)
		var dot float64
		if x.center == nil {
			for d, p := range row {
				dot += p * v[d]
			}
		} else {
			for d, p := range row {
				dot += p * (v[d] - x.center[d])
			}
		}
		if dot >= 0 {
			sig |= 1 << uint(b)
		}
	}
	return sig
}

// signatureMargins is signature() that additionally records each bit's
// margin — the |dot product| against its hyperplane, i.e. how close the
// query came to landing on the other side — into margins[0:bits]. The
// probe generator ranks bit flips by these margins. Bit values are
// computed with the same four-chain accumulation as signature(), so the
// returned signature is bit-identical to it.
func (x *HyperplaneIndex) signatureMargins(t int, v feature.Vector, margins []float64) uint64 {
	var sig uint64
	n := x.dim
	b := 0
	for ; b+4 <= x.bits; b += 4 {
		off := (t*x.bits + b) * n
		r0 := x.planes[off : off+n : off+n]
		r1 := x.planes[off+n : off+2*n : off+2*n][:len(r0)]
		r2 := x.planes[off+2*n : off+3*n : off+3*n][:len(r0)]
		r3 := x.planes[off+3*n : off+4*n : off+4*n][:len(r0)]
		vs := v[:len(r0)]
		var d0, d1, d2, d3 float64
		if x.center == nil {
			for d, p0 := range r0 {
				vv := vs[d]
				d0 += p0 * vv
				d1 += r1[d] * vv
				d2 += r2[d] * vv
				d3 += r3[d] * vv
			}
		} else {
			ct := x.center[:len(r0)]
			for d, p0 := range r0 {
				c := vs[d] - ct[d]
				d0 += p0 * c
				d1 += r1[d] * c
				d2 += r2[d] * c
				d3 += r3[d] * c
			}
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
		margins[b] = math.Abs(d0)
		margins[b+1] = math.Abs(d1)
		margins[b+2] = math.Abs(d2)
		margins[b+3] = math.Abs(d3)
	}
	for ; b < x.bits; b++ {
		row := x.planeRow(t, b)
		var dot float64
		if x.center == nil {
			for d, p := range row {
				dot += p * v[d]
			}
		} else {
			for d, p := range row {
				dot += p * (v[d] - x.center[d])
			}
		}
		if dot >= 0 {
			sig |= 1 << uint(b)
		}
		margins[b] = math.Abs(dot)
	}
	return sig
}

// slotVec returns slot s's vector as a view into the arena.
func (x *HyperplaneIndex) slotVec(s int32) feature.Vector {
	off := int(s) * x.dim
	return feature.Vector(x.arena[off : off+x.dim : off+x.dim])
}

// slotCodes returns slot s's int8 code vector as a view into the arena.
func (x *HyperplaneIndex) slotCodes(s int32) []int8 {
	off := int(s) * x.dim
	return x.codes[off : off+x.dim : off+x.dim]
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
	if x.sketchWords > 0 {
		x.sketch = append(x.sketch, make([]uint64, x.sketchWords)...)
	}
	if x.tun.Quantize {
		x.codes = append(x.codes, make([]int8, x.dim)...)
		x.quant = append(x.quant, feature.Quant{})
	}
	return s
}

// Insert adds (id, v) to all tables, replacing any prior entry for id.
func (x *HyperplaneIndex) Insert(id ID, v feature.Vector) error {
	if len(v) != x.dim {
		return fmt.Errorf("lsh: insert dim %d, index dim %d: %w",
			len(v), x.dim, feature.ErrDimensionMismatch)
	}
	x.wmu.Lock()
	defer x.wmu.Unlock()
	if slot, exists := x.idSlot[id]; exists {
		x.removeLocked(id, slot)
	}
	slot := x.allocSlotLocked()
	// The slot is either brand-new (no published bucket can reference
	// it yet) or recycled after a grace period (every reader that could
	// have seen it has departed), so these writes race with nothing;
	// the publish below is the release that makes them visible.
	copy(x.arena[int(slot)*x.dim:], v)
	x.slotID[slot] = id
	vc := x.slotVec(slot)
	for t := 0; t < x.tables; t++ {
		x.slotSig[int(slot)*x.tables+t] = x.signature(t, vc)
	}
	// Derived per-slot representations are recomputed, never stored:
	// snapshot import re-inserts through this same path, so sketches and
	// codes round-trip deterministically from (seed, vector) alone.
	if x.sketchWords > 0 {
		x.sketchInto(vc, x.slotSketch(slot))
	}
	if x.tun.Quantize {
		x.quant[slot] = feature.QuantizeInto(vc, x.slotCodes(slot))
	}
	x.idSlot[id] = slot
	x.publishLocked(func(side []map[uint64][]int32) {
		for t := 0; t < x.tables; t++ {
			sig := x.slotSig[int(slot)*x.tables+t]
			side[t][sig] = append(side[t][sig], slot)
		}
	})
	return nil
}

// Remove deletes id from all tables.
func (x *HyperplaneIndex) Remove(id ID) {
	x.wmu.Lock()
	defer x.wmu.Unlock()
	if slot, ok := x.idSlot[id]; ok {
		x.removeLocked(id, slot)
	}
}

// VectorInto copies id's vector out of the arena. It takes the writer
// mutex — idSlot is writer-owned, and under it no slot can be recycled
// mid-copy — so it stays off the lock-free read path entirely.
func (x *HyperplaneIndex) VectorInto(id ID, dst feature.Vector) (feature.Vector, bool) {
	x.wmu.Lock()
	defer x.wmu.Unlock()
	slot, ok := x.idSlot[id]
	if !ok {
		return dst[:0], false
	}
	return append(dst[:0], x.slotVec(slot)...), true
}

// bucketShrinkMin is the smallest bucket capacity the shrink heuristic
// bothers reallocating; below it the retained memory is trivial.
const bucketShrinkMin = 16

// removeLocked unlinks slot from both bucket sides (via one publish
// round) and recycles it. The slot joins the free list only AFTER the
// grace period inside publishLocked, so no reader can still hold a
// view whose buckets reference it by the time a later insert
// overwrites its arena memory. Caller holds wmu.
func (x *HyperplaneIndex) removeLocked(id ID, slot int32) {
	delete(x.idSlot, id)
	x.publishLocked(func(side []map[uint64][]int32) {
		for t := 0; t < x.tables; t++ {
			sig := x.slotSig[int(slot)*x.tables+t]
			bucket := side[t][sig]
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
				delete(side[t], sig)
			case cap(bucket) >= bucketShrinkMin && cap(bucket) >= 4*len(bucket):
				// Long churny runs otherwise retain grossly over-capacity
				// backing arrays for hot signatures.
				shrunk := make([]int32, len(bucket))
				copy(shrunk, bucket)
				side[t][sig] = shrunk
			default:
				side[t][sig] = bucket
			}
		}
	})
	if poisonRetired.Load() {
		x.poisonSlot(slot)
	}
	x.free = append(x.free, slot)
}

// getScratch checks out per-query scratch state. A fresh scratch is
// assigned the next read-indicator stripe round-robin; the pool is
// per-P, so concurrent readers end up stamping distinct stripes.
func (x *HyperplaneIndex) getScratch() *queryScratch {
	if sc, ok := x.scratch.Get().(*queryScratch); ok {
		return sc
	}
	return &queryScratch{stripe: x.stripeSeq.Add(1)}
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
// land in caller-owned memory.
//
// Under a tuned pipeline the gather walks the full multi-probe sequence
// and applies the sketch prefilter, so the returned set is exactly the
// population NearestInto would score.
func (x *HyperplaneIndex) CandidatesInto(q feature.Vector, dst []ID) ([]ID, error) {
	if len(q) != x.dim {
		return nil, fmt.Errorf("lsh: query dim %d, index dim %d: %w",
			len(q), x.dim, feature.ErrDimensionMismatch)
	}
	sc := x.getScratch()
	defer x.scratch.Put(sc)
	v, vi := x.pin(sc.stripe)
	defer x.unpin(vi, sc.stripe)
	x.gather(v, q, sc)
	out := dst[:0]
	for _, slot := range sc.cands {
		out = append(out, v.slotID[slot])
	}
	return out, nil
}

// gather fills sc.cands with the slots a lookup of q must score,
// deduplicated, in first-collision order. The classic pipeline takes the
// union of q's bucket in every table; a tuned one walks each table's
// multi-probe bucket sequence and (optionally) rejects candidates on
// packed-sketch Hamming distance before any float math. The caller has
// pinned v.
func (x *HyperplaneIndex) gather(v *indexView, q feature.Vector, sc *queryScratch) {
	sc.begin(len(v.slotID))
	cands := sc.cands[:0]
	if !x.tun.enabled() {
		for t := 0; t < x.tables; t++ {
			sig := x.signature(t, q)
			for _, slot := range v.buckets[t][sig] {
				if sc.visited[slot] == sc.epoch {
					continue
				}
				sc.visited[slot] = sc.epoch
				cands = append(cands, slot)
			}
		}
		sc.cands = cands
		return
	}
	sc.ensureTuned(x.bits, x.dim)
	var qsk [2]uint64
	words := x.sketchWords
	if words > 0 {
		x.sketchInto(q, qsk[:words])
	}
	maxHam := x.tun.MaxHamming
	var pg probeGen
	for t := 0; t < x.tables; t++ {
		sig := x.signatureMargins(t, q, sc.margins)
		pg.init(sig, x.bits, sc.margins, sc.sorted, sc.order, sc.heap)
		for p := 0; p < x.tun.Probes; p++ {
			psig, ok := pg.next()
			if !ok {
				break
			}
			for _, slot := range v.buckets[t][psig] {
				if sc.visited[slot] == sc.epoch {
					continue
				}
				sc.visited[slot] = sc.epoch
				if words > 0 {
					// Inlined popcount Hamming; words is 1 or 2.
					off := int(slot) * words
					d := bits.OnesCount64(qsk[0] ^ v.sketch[off])
					if words == 2 {
						d += bits.OnesCount64(qsk[1] ^ v.sketch[off+1])
					}
					if d > maxHam {
						continue
					}
				}
				cands = append(cands, slot)
			}
		}
		sc.heap = pg.heap[:0] // retain heap growth across tables/queries
	}
	sc.cands = cands
}

// prerank is the quantized stage of a tuned lookup: it scores every
// gathered candidate with the int8 integer-dot kernel and narrows
// sc.cands to the RerankK·k nearest by approximate distance, the only
// ones that go on to pay an exact distance. It selects on (approximate
// distance, slot): slots are assigned deterministically, so the keep-set
// is stable across runs and reloads.
func (x *HyperplaneIndex) prerank(v *indexView, q feature.Vector, k int, sc *queryScratch) {
	var rsel kSelector
	rsel.reset(x.tun.RerankK*k, sc.approx[:0])
	qq := feature.QuantizeInto(q, sc.qcodes)
	for _, slot := range sc.cands {
		dot := feature.DotInt8(sc.qcodes, v.slotCodes(x.dim, slot))
		rsel.add(Neighbor{
			ID:       ID(slot),
			Distance: feature.ApproxSqDistance(x.dim, qq, v.quant[slot], dot),
		})
	}
	kept := rsel.finish()
	sc.cands = sc.cands[:0]
	for _, n := range kept {
		sc.cands = append(sc.cands, int32(n.ID))
	}
	sc.approx = kept[:0] // retain selector growth for the next query
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
//
// The scan is the same for every pipeline: gather the candidate slots
// (see gather), let the quantized stage narrow them when enabled, score
// what is left exactly.
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
	v, vi := x.pin(sc.stripe)
	x.gather(v, q, sc)
	if x.tun.Quantize {
		x.prerank(v, q, k, sc)
	}
	var sel kSelector
	sel.reset(k, dst[:0])
	scanSlots(q, v.arena, x.dim, v.slotID, sc.cands, len(sc.cands), &sel, sqBound(radius))
	x.unpin(vi, sc.stripe)
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

// Stats returns occupancy statistics. Lock-free: it walks the
// published snapshot under a pin, so stats polling never stalls
// writers or other readers.
func (x *HyperplaneIndex) Stats() Stats {
	stripe := x.stripeSeq.Add(1)
	v, vi := x.pin(stripe)
	defer x.unpin(vi, stripe)
	s := Stats{Items: v.live, Tables: x.tables, Bits: x.bits}
	var total int
	for t := 0; t < x.tables; t++ {
		for _, b := range v.buckets[t] {
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
	if v.live > 0 {
		// For each item, its candidate set is at least the sizes of
		// its own buckets; use the mean bucket size per table as an
		// estimate of per-query work.
		s.MeanCandidateSet = s.MeanBucket * float64(x.tables)
	}
	return s
}
