package feature

// The exact distance kernels every nearest-neighbour scan in the tree
// scores with: the LSH indexes' candidate scan and the simulated DNN's
// prototype search. Both sum squared differences in ascending dimension
// order, so a distance computed to the end is bit-identical to
// MustSqEuclidean, and both give up early on a candidate that provably
// exceeds a bound: a squared distance is a sum of squares, so its
// partial sums never decrease, and once a partial sum exceeds the bound
// the full sum does too.

// ScanBlock is how many dimensions a kernel accumulates between abandon
// checks: long enough that the check is amortised, short enough that a
// far candidate is dropped after a fraction of its dimensions.
const ScanBlock = 16

// SqDist4 accumulates the squared Euclidean distances from q to four
// vectors as long as q in interleaved chains (four independent
// floating-point add chains hide each other's latency). After every
// ScanBlock dimensions it gives up — ok false, sums partial — if all
// four partial sums exceed bound.
func SqDist4(q, a0, a1, a2, a3 []float64, bound float64) (s0, s1, s2, s3 float64, ok bool) {
	n := len(q)
	for base := 0; base < n; base += ScanBlock {
		end := base + ScanBlock
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

// SqDist is SqDist4 for a single vector: the same ascending-order sum,
// the same abandon test after every ScanBlock dimensions, without
// paying for unused chains.
func SqDist(q, a []float64, bound float64) (s float64, ok bool) {
	n := len(q)
	for base := 0; base < n; base += ScanBlock {
		end := base + ScanBlock
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
