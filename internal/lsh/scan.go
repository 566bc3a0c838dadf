package lsh

import (
	"math"

	"approxcache/internal/feature"
)

// The one exact scan kernel every index scores candidates with. A
// lookup first gathers its candidate slots, then scanSlots scores them
// four at a time and feeds a bounded top-k selector, abandoning
// candidates that provably cannot be selected or be within the
// caller's radius.
//
// Why abandoning is exact: a squared distance is a sum of squares, so
// its partial sums never decrease. Once a partial sum exceeds a bound,
// the full sum exceeds it too. A candidate whose partial sum exceeds
// the k-th best distance so far would be refused by the selector, and
// one whose partial sum exceeds radius² is out of range; skipping
// either changes nothing the caller can see. Each chain sums
// dimensions in ascending order, so a distance that is computed to the
// end is bit-identical to feature.MustSqEuclidean.
//
// (The one exception is a stored vector with a NaN component behind a
// block that already exceeded the bound: its NaN total is never
// reached. Stored vectors are finite in every supported pipeline — the
// frame guard refuses non-finite pixels.)

// scanBlock is how many dimensions each chain accumulates between
// abandon checks: long enough that the check is amortised, short
// enough that a far candidate is dropped after a fraction of its
// dimensions.
const scanBlock = 16

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

// sqDist4 accumulates the squared Euclidean distances from q to four
// equally long vectors in interleaved chains (four independent
// floating-point add chains hide each other's latency). After every
// scanBlock dimensions it gives up — ok false, sums partial — if all
// four partial sums exceed bound.
func sqDist4(q, a0, a1, a2, a3 []float64, bound float64) (s0, s1, s2, s3 float64, ok bool) {
	n := len(q)
	for base := 0; base < n; base += scanBlock {
		end := base + scanBlock
		if end > n {
			end = n
		}
		qb := q[base:end]
		// Re-slicing to len(qb) lets the compiler drop the per-dimension
		// bounds checks.
		b0 := a0[base:end][:len(qb)]
		b1 := a1[base:end][:len(qb)]
		b2 := a2[base:end][:len(qb)]
		b3 := a3[base:end][:len(qb)]
		for d, qv := range qb {
			t0 := qv - b0[d]
			t1 := qv - b1[d]
			t2 := qv - b2[d]
			t3 := qv - b3[d]
			s0 += t0 * t0
			s1 += t1 * t1
			s2 += t2 * t2
			s3 += t3 * t3
		}
		if s0 > bound && s1 > bound && s2 > bound && s3 > bound {
			return s0, s1, s2, s3, false
		}
	}
	return s0, s1, s2, s3, true
}

// sqDist1 is sqDist4 for a single vector: the same ascending-order sum,
// the same abandon test after every scanBlock dimensions. It scores the
// candidates that do not fill a group of four — all of them when a
// lookup collides with only one or two entries — without paying for
// unused chains.
func sqDist1(q, a []float64, bound float64) (s float64, ok bool) {
	n := len(q)
	for base := 0; base < n; base += scanBlock {
		end := base + scanBlock
		if end > n {
			end = n
		}
		qb := q[base:end]
		b := a[base:end][:len(qb)]
		for d, qv := range qb {
			t := qv - b[d]
			s += t * t
		}
		if s > bound {
			return s, false
		}
	}
	return s, true
}

// scanSlots scores n candidate vectors of the dim-wide arena against q
// and offers them to sel as (slotID[slot], squared distance). The i-th
// candidate is slot cands[i], or slot i when cands is nil (a dense
// arena scanned end to end). Candidates whose squared distance exceeds
// limit2 are never offered; neither are those already worse than the
// selector's current k-th best. Whole groups of four go through sqDist4,
// the up to three left over through sqDist1.
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
	i := 0
	for ; i+4 <= n; i += 4 {
		c0, c1, c2, c3 := slot(i), slot(i+1), slot(i+2), slot(i+3)
		bound := math.Min(limit2, sel.bound())
		d0, d1, d2, d3, ok := sqDist4(q, row(c0), row(c1), row(c2), row(c3), bound)
		if !ok {
			continue
		}
		offer(c0, d0)
		offer(c1, d1)
		offer(c2, d2)
		offer(c3, d3)
	}
	for ; i < n; i++ {
		c := slot(i)
		if d, ok := sqDist1(q, row(c), math.Min(limit2, sel.bound())); ok {
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
