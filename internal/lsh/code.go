package lsh

import (
	"math"

	"approxcache/internal/feature"
)

// The code filter a radius lookup runs between gather and scan. Every
// slot keeps a 64-byte code of its vector's first codeDims components,
// round(255·x) each. A code is within half a step of 255·x in every
// dimension, so two codes are within one step of 255·(q−x) per
// dimension and within √64 = 8 steps overall:
//
//	‖c_q − c_x‖ ≤ 255·‖q₆₄ − x₆₄‖ + 8 ≤ 255·‖q − x‖ + 8.
//
// A candidate whose code lies farther than (255·r + 8)·(1+codeSlack)
// from the query's is therefore farther than r·(1+codeSlack) in full:
// its computed distance exceeds the scan's pruning bound, so the scan
// would never have offered it, and dropping it first changes no
// neighbour, no distance and no order. Descriptors sit in the positive
// orthant, where a bucket of hyperplane collisions is mostly far rows;
// the filter drops those for a fraction of a full-precision score.
//
// A vector is coded only when its code bounds it: each of its first
// codeDims components within half a step of [0, 1] and every component
// finite. An index holding an uncoded vector, a query that is not coded
// and a host without AVX2 scan every gathered candidate as before.

// codeDims is how many leading dimensions a code keeps: one byte each.
const codeDims = 64

// codeSlack widens the code bound so that rounding in it, in the codes
// and in the scan's own distance cannot drop a candidate the scan would
// offer. It also keeps every dropped candidate at least √66 − 8 code
// steps past r, far above the squared sum's underflow.
const codeSlack = 1e-6

// maxCodeDist2 is the largest squared distance two codes can have.
const maxCodeDist2 = codeDims * 255 * 255

// encode writes v's code into c and reports whether it bounds v: every
// component finite, and each of the first codeDims in [−0.5/255,
// 255.5/255), so that its code is round(255·x) to within half a step. A
// code past len(v) is zero, for both sides of any distance alike.
func encode(v feature.Vector, c *[codeDims]uint8) bool {
	n := min(len(v), codeDims)
	ok := true
	for i, x := range v[:n] {
		y := 255*x + 0.5
		if !(y >= 0 && y < 256) { // NaN fails too
			ok, y = false, 0
		}
		c[i] = uint8(y)
	}
	clear(c[n:])
	var inf float64 // x−x is 0 for a finite x, NaN otherwise
	for _, x := range v[n:] {
		inf += x - x
	}
	return ok && inf == 0
}

// codeLimit returns the squared code distance past which a candidate is
// provably farther than radius from the query: ⌈((255·r + 8)·(1 +
// codeSlack))²⌉. It reports false when nothing can be dropped: an
// infinite, NaN or negative radius (scanned as without the filter) or
// one so wide that every two codes are within it.
func codeLimit(radius float64) (int32, bool) {
	if !(radius >= 0 && radius < math.Inf(1)) {
		return 0, false
	}
	b := (255*radius + 8) * (1 + codeSlack)
	l := math.Ceil(b * b)
	if l >= maxCodeDist2 {
		return 0, false
	}
	return int32(l), true
}

// filterCodes keeps, in place and in order, the candidate slots of cands
// whose code (codes[s*codeDims:]) has a squared distance of at most
// limit from q, and returns how many it kept. It runs the AVX2 kernel,
// and the lookup calls it on an AVX2 host only: in Go, a code distance
// costs about what the float scan it would spare costs.
func filterCodes(q *[codeDims]uint8, codes []uint8, cands []int32, limit int32) int {
	i := len(cands) &^ 3
	n := filterCodesAVX2(q, codes, cands[:i], limit)
	rest := cands[i:]
	if len(rest) == 0 {
		return n
	}
	// The up to three left over make one more group, padded with copies
	// of the first. A slot's verdict is the same wherever it stands, so
	// the compacted group starts with the first exactly when the first is
	// kept, and then its copies are kept too, last.
	first := rest[0]
	g := [4]int32{first, first, first, first}
	copy(g[:], rest)
	k := filterCodesAVX2(q, codes, g[:], limit)
	if k > 0 && g[0] == first {
		k -= len(g) - len(rest)
	}
	return n + copy(cands[n:], g[:k])
}
