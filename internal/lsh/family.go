package lsh

import (
	"math/rand"
	"runtime"
	"sync"
	"weak"

	"approxcache/internal/cpu"
	"approxcache/internal/feature"
)

// hashFamily is the hash function of a HyperplaneIndex: the table
// hyperplanes. It is immutable once built, and it is a deterministic
// function of (dim, bits, tables, seed), so every index built with one
// key shares one family (sharedFamily).
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
}

// familyKey is what a family is a function of.
type familyKey struct {
	dim, bits, tables int
	seed              int64
}

// families interns hash families weakly: while an index holds a
// family, every index built with its key gets the same one; once none
// does, the collector frees it, and a cleanup drops its entry unless a
// newer family has taken the key.
var families struct {
	sync.Mutex
	m map[familyKey]weak.Pointer[hashFamily]
}

// familyEntry is what a family's cleanup needs to drop its own entry.
type familyEntry struct {
	key familyKey
	ref weak.Pointer[hashFamily]
}

// sharedFamily returns the live family for (dim, bits, tables, seed),
// drawing it if no index holds one. Arguments are validated by the
// caller.
func sharedFamily(dim, bits, tables int, seed int64) *hashFamily {
	key := familyKey{dim, bits, tables, seed}
	families.Lock()
	defer families.Unlock()
	if f := families.m[key].Value(); f != nil {
		return f
	}
	f := newHashFamily(dim, bits, tables, seed)
	e := familyEntry{key, weak.Make(f)}
	if families.m == nil {
		families.m = make(map[familyKey]weak.Pointer[hashFamily])
	}
	families.m[key] = e.ref
	runtime.AddCleanup(f, dropFamily, e)
	return f
}

// dropFamily removes a collected family's entry.
func dropFamily(e familyEntry) {
	families.Lock()
	defer families.Unlock()
	if families.m[e.key] == e.ref {
		delete(families.m, e.key)
	}
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

// project writes v's signature in every table into sigs[0:tables]. Bit
// b of table t's signature is set when v's dot product with that
// hyperplane, summed in ascending dimension order, is ≥ 0 (so a NaN
// product clears it). Caller must have validated dimensions.
func (f *hashFamily) project(v feature.Vector, sigs []uint64) {
	var buf [4]uint64 // the sign bits of up to 256 planes
	words := buf[:]
	if n := (len(f.planes)/(f.dim*planeBlock) + 3) / 4; n > len(buf) {
		words = make([]uint64, n)
	}
	if cpu.HasAVX2 {
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
