package lsh

import (
	"math"

	"approxcache/internal/feature"
)

// The exact scan every index scores candidates with. A lookup first
// gathers its candidate slots, then scanSlots scores them eight at a time
// with feature.SqDist4x2 and feeds a bounded top-k selector, abandoning
// candidates that provably cannot be selected or be within the caller's
// radius. A candidate whose partial sum exceeds the k-th best distance
// so far would be refused by the selector, and one whose partial sum
// exceeds radius² is out of range; skipping either changes nothing the
// caller can see. A distance computed to the end is bit-identical to
// feature.MustSqEuclidean.
//
// (The one exception is a stored vector with a NaN component behind a
// block that already exceeded the bound: its NaN total is never
// reached. Stored vectors are finite in every supported pipeline:
// descriptors are built from 8-bit frames, a peer's vectors are
// dequantized from a scale and offset p2p.Decode checks are finite, and
// cachestore's Import refuses non-finite vectors.)

// radiusSlack widens the squared pruning bound so that rounding in
// radius² or in the final square root can never prune a neighbor whose
// reported Distance is ≤ radius; results are cut at the radius exactly
// afterwards (see finishWithin).
const radiusSlack = 1 + 1e-9

// sqBound returns the squared-distance pruning bound for a search
// radius: +Inf (no pruning) for an infinite or NaN radius, a bound
// nothing meets for a negative one.
func sqBound(radius float64) float64 {
	switch {
	case !(radius < math.Inf(1)):
		return math.Inf(1)
	case radius < 0:
		return -1
	}
	return radius * radius * radiusSlack
}

// scanSlots scores n candidate vectors of the dim-wide arena against q
// and offers them to sel as (slotID[slot], squared distance). The i-th
// candidate is slot cands[i], or slot i when cands is nil (a dense
// arena scanned end to end). Candidates whose squared distance exceeds
// limit2 are never offered; neither are those already worse than the
// selector's current k-th best. Candidates go eight at a time through
// feature.SqDist4x2, then a group of four through feature.SqDist4, the
// up to three left over through feature.SqDist. Both groups of eight
// share the bound taken before either is offered: a candidate the later
// group keeps that a fresher bound would have dropped is worse than the
// k-th best already held, so the selector refuses it.
func scanSlots(q feature.Vector, arena []float64, dim int, slotID []ID, cands []int32, n int, sel *kSelector, limit2 float64) {
	slot := func(i int) int32 {
		if cands != nil {
			return cands[i]
		}
		return int32(i)
	}
	row := func(s int32) []float64 {
		off := int(s) * dim
		return arena[off : off+dim : off+dim]
	}
	offer := func(s int32, d float64) {
		if d > limit2 {
			return
		}
		sel.add(Neighbor{ID: slotID[s], Distance: d})
	}
	var (
		group [8]int32
		rows  [8][]float64
		sums  [8]float64
	)
	i := 0
	for ; i+8 <= n; i += 8 {
		for j := range group {
			group[j] = slot(i + j)
			rows[j] = row(group[j])
		}
		ok0, ok1 := feature.SqDist4x2(q, &rows, math.Min(limit2, sel.bound()), &sums)
		for j, ok := range [2]bool{ok0, ok1} {
			if ok {
				for l := 4 * j; l < 4*j+4; l++ {
					offer(group[l], sums[l])
				}
			}
		}
	}
	if i+4 <= n {
		c0, c1, c2, c3 := slot(i), slot(i+1), slot(i+2), slot(i+3)
		d0, d1, d2, d3, ok := feature.SqDist4(q, row(c0), row(c1), row(c2), row(c3), math.Min(limit2, sel.bound()))
		if ok {
			offer(c0, d0)
			offer(c1, d1)
			offer(c2, d2)
			offer(c3, d3)
		}
		i += 4
	}
	for ; i < n; i++ {
		c := slot(i)
		if d, ok := feature.SqDist(q, row(c), math.Min(limit2, sel.bound())); ok {
			offer(c, d)
		}
	}
}

// finishWithin turns a selection over squared distances into the
// search result: ascending (distance, ID) order, true distances, cut
// at the first neighbor farther than radius. Taking the root of the k
// survivors only is bit-identical to a root per candidate, because the
// order on squares is the order on roots.
func finishWithin(sel *kSelector, radius float64) []Neighbor {
	out := sel.finish()
	for i := range out {
		out[i].Distance = math.Sqrt(out[i].Distance)
		if out[i].Distance > radius {
			return out[:i]
		}
	}
	return out
}
