package lsh

import "math/bits"

// Packed binary sign sketches. Each resident vector carries a 64- or
// 128-bit SimHash sketch — the signs of projections onto a dedicated
// set of sketch hyperplanes — packed into a flat []uint64 arena
// parallel to the vector arena. A lookup computes the query's sketch
// once, then rejects candidates whose sketch differs by more than the
// configured Hamming threshold using XOR + popcount: branch-free
// integer work on 8–16 bytes per candidate, before any float math.
//
// Sketch hyperplanes are drawn from an RNG seeded by a fixed function
// of the index seed, AFTER the table hyperplanes, so adding a sketch
// never perturbs the table signatures and the same (seed, SketchBits)
// always yields the same sketches — the invariant that lets snapshot
// import simply recompute them.

// sketchSeedMix derives the sketch-plane RNG seed from the index seed.
// The constant is arbitrary but fixed: it is part of the index's
// identity, like the hyperplane draw order.
const sketchSeedMix = 0x536b6574 // "Sket"

// hamming returns the Hamming distance between two packed sketches of
// equal word count (1 or 2 words in practice).
func hamming(a, b []uint64) int {
	d := bits.OnesCount64(a[0] ^ b[0])
	if len(a) > 1 {
		d += bits.OnesCount64(a[1] ^ b[1])
	}
	return d
}

// slotSketch returns slot s's packed sketch as a view into the arena.
func (x *HyperplaneIndex) slotSketch(s int32) []uint64 {
	off := int(s) * x.sketchWords
	return x.sketch[off : off+x.sketchWords : off+x.sketchWords]
}

// sketchInto writes v's packed sign sketch into dst, which must have
// sketchBits/64 words. Like signature(), the projections run four
// independent chains at a time with each chain summing dimensions in
// ascending order, so sketches are a bit-deterministic function of
// (seed, SketchBits, v).
func (f *hashFamily) sketchInto(v []float64, dst []uint64) {
	for w := range dst {
		dst[w] = 0
	}
	n := f.dim
	nbits := f.sketchBits
	setBit := func(b int) {
		dst[b>>6] |= 1 << uint(b&63)
	}
	b := 0
	for ; b+4 <= nbits; b += 4 {
		off := b * n
		r0 := f.sketchPlanes[off : off+n : off+n]
		r1 := f.sketchPlanes[off+n : off+2*n : off+2*n][:len(r0)]
		r2 := f.sketchPlanes[off+2*n : off+3*n : off+3*n][:len(r0)]
		r3 := f.sketchPlanes[off+3*n : off+4*n : off+4*n][:len(r0)]
		vs := v[:len(r0)]
		var d0, d1, d2, d3 float64
		if f.center == nil {
			for d, p0 := range r0 {
				vv := vs[d]
				d0 += p0 * vv
				d1 += r1[d] * vv
				d2 += r2[d] * vv
				d3 += r3[d] * vv
			}
		} else {
			ct := f.center[:len(r0)]
			for d, p0 := range r0 {
				c := vs[d] - ct[d]
				d0 += p0 * c
				d1 += r1[d] * c
				d2 += r2[d] * c
				d3 += r3[d] * c
			}
		}
		if d0 >= 0 {
			setBit(b)
		}
		if d1 >= 0 {
			setBit(b + 1)
		}
		if d2 >= 0 {
			setBit(b + 2)
		}
		if d3 >= 0 {
			setBit(b + 3)
		}
	}
	for ; b < nbits; b++ {
		off := b * n
		row := f.sketchPlanes[off : off+n : off+n]
		var dot float64
		if f.center == nil {
			for d, p := range row {
				dot += p * v[d]
			}
		} else {
			for d, p := range row {
				dot += p * (v[d] - f.center[d])
			}
		}
		if dot >= 0 {
			setBit(b)
		}
	}
}
