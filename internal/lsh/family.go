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

	// planes is the hyperplane matrix, the family's only copy of it,
	// stored dim-major in blocks of planeBlock hyperplanes: component d
	// of plane p = t*bits + b (hyperplane b of table t) sits at
	// planes[(p/planeBlock*dim+d)*planeBlock + p%planeBlock], and the
	// last block is padded with zero planes. A block is dim runs of
	// planeBlock floats, so the signature kernel sweeps it once with
	// one vector lane per hyperplane.
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
	nplanes := tables * bits
	blocks := (nplanes + planeBlock - 1) / planeBlock
	f := &hashFamily{
		dim: dim, bits: bits, tables: tables,
		planes: make([]float64, blocks*planeBlock*dim),
	}
	// Draw order (table, bit, dim) is part of the index's identity:
	// the same seed must yield the same hyperplanes across versions.
	rng := rand.New(rand.NewSource(seed))
	for p := 0; p < nplanes; p++ {
		for d := 0; d < dim; d++ {
			f.planes[(p/planeBlock*dim+d)*planeBlock+p%planeBlock] = rng.NormFloat64()
		}
	}
	return f
}

// planeBlock is how many hyperplanes the signature kernel projects onto
// in one sweep: four vector registers of four float64 lanes.
const planeBlock = 16

// project writes v's signature in every table into sigs[0:tables],
// without the memo. Bit b of table t's signature is set when v's dot
// product with that hyperplane, summed in ascending dimension order, is
// ≥ 0 (so a NaN product clears it). Caller must have validated
// dimensions.
func (f *hashFamily) project(v feature.Vector, sigs []uint64) {
	var buf [4]uint64 // the sign bits of up to 256 planes
	words := buf[:]
	if n := (len(f.planes)/(f.dim*planeBlock) + 3) / 4; n > len(buf) {
		words = make([]uint64, n)
	}
	if hasAVX2 {
		signBlocksAVX2(v, f.planes, words)
	} else {
		signBlocksGo(v, f.planes, words)
	}
	mask := ^uint64(0) >> (64 - f.bits)
	for t := range sigs[:f.tables] {
		lo := t * f.bits
		w, sh := lo/64, uint(lo%64)
		sig := words[w] >> sh
		if int(sh)+f.bits > 64 {
			sig |= words[w+1] << (64 - sh)
		}
		sigs[t] = sig & mask
	}
}

// signBlocksGo is the signature kernel in Go, the reference the
// assembly is tested against: plane j of block k sets bit 16k+j of the
// little-endian bit string words when its dot product with v is ≥ 0.
// Each dot product adds the rounded products in ascending dimension
// order (the float64 conversion keeps any build from fusing them into
// an FMA), four planes' chains interleaved.
func signBlocksGo(v, planes []float64, words []uint64) {
	dim := len(v)
	size := dim * planeBlock
	for k := 0; k*size < len(planes); k++ {
		blk := planes[k*size : (k+1)*size]
		var m uint64
		for j := 0; j < planeBlock; j += 4 {
			var d0, d1, d2, d3 float64
			for d, x := range v {
				p := blk[d*planeBlock+j : d*planeBlock+j+4 : d*planeBlock+j+4]
				d0 += float64(p[0] * x)
				d1 += float64(p[1] * x)
				d2 += float64(p[2] * x)
				d3 += float64(p[3] * x)
			}
			for i, dot := range [4]float64{d0, d1, d2, d3} {
				if dot >= 0 {
					m |= 1 << uint(j+i)
				}
			}
		}
		if k%4 == 0 {
			words[k/4] = 0
		}
		words[k/4] |= m << (uint(k%4) * planeBlock)
	}
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
	f.project(v, sigs)
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
