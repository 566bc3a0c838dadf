package lsh

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"approxcache/internal/feature"
)

// hashFamily is the hash function of a HyperplaneIndex: the table
// hyperplanes and a signature memo. Everything but the memo is
// immutable once the family is built, and it is a deterministic
// function of (dim, bits, tables, seed). Each index owns its family.
type hashFamily struct {
	dim, bits, tables int

	// planes is the flattened hyperplane matrix: hyperplane b of table
	// t occupies planes[(t*bits+b)*dim : (t*bits+b+1)*dim], so a
	// signature is one strided sweep over contiguous memory.
	planes []float64

	// memo remembers the table signatures of the last few vectors
	// hashed, so a descriptor is hashed once per frame: the frame's
	// lookup fills a slot and its Insert reads it.
	memo     [memoSlots]memoSlot
	memoNext atomic.Uint32 // round-robin fill cursor
}

// memoSlots is how many vectors a family remembers: one per frame in
// flight on a node with a few cores (pool sessions share one index),
// not a cache of past frames.
const memoSlots = 4

// memoSlot is one remembered (vector, signatures) pair. mu is only ever
// taken with TryLock — a busy slot is skipped, never waited for — and
// nothing else is locked while it is held, so it sits at the bottom of
// the lock order.
type memoSlot struct {
	// first is the bit pattern of vec[0], readable without mu: a probe
	// for a vector that starts differently — nearly every miss — passes
	// the slot by without touching the lock. It only ever rules a slot
	// out; what a slot answers is decided under mu.
	first atomic.Uint64
	mu    sync.Mutex
	vec   []float64 // dim wide; empty until first filled
	sigs  []uint64  // one per table
}

// newHashFamily draws the family for (dim, bits, tables, seed).
// Arguments are validated by the caller.
func newHashFamily(dim, bits, tables int, seed int64) *hashFamily {
	f := &hashFamily{
		dim: dim, bits: bits, tables: tables,
		planes: make([]float64, tables*bits*dim),
	}
	// Draw order (table, bit, dim) is part of the index's identity:
	// the same seed must yield the same hyperplanes across versions.
	rng := rand.New(rand.NewSource(seed))
	for i := range f.planes {
		f.planes[i] = rng.NormFloat64()
	}
	return f
}

// planeRow returns hyperplane b of table t as a slice into the flat
// matrix.
func (f *hashFamily) planeRow(t, b int) []float64 {
	off := (t*f.bits + b) * f.dim
	return f.planes[off : off+f.dim : off+f.dim]
}

// signatures writes v's signature in every table into sigs[0:tables]:
// sigs[t] == signature(t, v), bit for bit, read from the memo when a
// slot holds exactly v and computed (and remembered) otherwise. Caller
// must have validated dimensions.
func (f *hashFamily) signatures(v feature.Vector, sigs []uint64) {
	sigs = sigs[:f.tables]
	if f.memoLoad(v, sigs) {
		return
	}
	for t := range sigs {
		sigs[t] = f.signature(t, v)
	}
	f.memoStore(v, sigs)
}

// memoLoad copies v's remembered signatures into sigs and reports
// whether a slot held v. Slots another goroutine is using are skipped.
func (f *hashFamily) memoLoad(v feature.Vector, sigs []uint64) bool {
	// Newest slot first: the usual hit is the vector just stored.
	newest := f.memoNext.Load()
	first := math.Float64bits(v[0])
	for i := uint32(0); i < memoSlots; i++ {
		m := &f.memo[(newest-i)%memoSlots]
		if m.first.Load() != first || !m.mu.TryLock() {
			continue
		}
		hit := sameBits(m.vec, v)
		if hit {
			copy(sigs, m.sigs)
		}
		m.mu.Unlock()
		if hit {
			return true
		}
	}
	return false
}

// memoStore remembers (v, sigs) in the next slot round-robin, or not at
// all when that slot is busy.
func (f *hashFamily) memoStore(v feature.Vector, sigs []uint64) {
	m := &f.memo[f.memoNext.Add(1)%memoSlots]
	if !m.mu.TryLock() {
		return
	}
	m.vec = append(m.vec[:0], v...)
	m.sigs = append(m.sigs[:0], sigs...)
	m.first.Store(math.Float64bits(v[0]))
	m.mu.Unlock()
}

// sameBits reports whether a and b are the same vector bit for bit and
// hold no NaN. +0 and -0 differ, and a NaN matches nothing — not even
// itself — so a hit can only ever stand for a vector whose every
// arithmetic result is the one remembered.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if math.Float64bits(x) != math.Float64bits(b[i]) || x != x {
			return false
		}
	}
	return true
}
