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
//
// On an AVX2 host the whole blocks run in assembly, one vector lane per
// row (kernels_amd64.s); the sums, the blocks it gives up after and the
// partial sums it returns there are bit for bit those of the Go chains,
// which score the final partial block and every block elsewhere.
func SqDist4(q, a0, a1, a2, a3 []float64, bound float64) (s0, s1, s2, s3 float64, ok bool) {
	n := 0
	if hasAVX2 {
		n = len(q) &^ (ScanBlock - 1)
	}
	if n > 0 {
		var s [4]float64
		if !sqDist4AVX2(q[:n], a0[:n], a1[:n], a2[:n], a3[:n], bound, &s) {
			return s[0], s[1], s[2], s[3], false
		}
		s0, s1, s2, s3 = s[0], s[1], s[2], s[3]
	}
	return sqDist4From(q, a0, a1, a2, a3, n, s0, s1, s2, s3, bound)
}

// SqDist4x2 is SqDist4 over two groups of rows at once, rows[0:4] into
// s[0:4] and rows[4:8] into s[4:8], with ok0 and ok1 the groups' ok
// flags. Each group gives up on its own, exactly where SqDist4 would,
// and keeps the partial sums it gave up with. Two groups in flight keep
// twice the add chains busy, which is what a scan of many candidates
// is bound by.
func SqDist4x2(q []float64, rows *[8][]float64, bound float64, s *[8]float64) (ok0, ok1 bool) {
	n := 0
	if hasAVX2 {
		n = len(q) &^ (ScanBlock - 1)
	}
	if n > 0 {
		for i := range rows {
			_ = rows[i][:n] // the assembly reads n of each row
		}
		ok0, ok1 = sqDist4x2AVX2(q[:n], rows, bound, s)
	} else {
		ok0, ok1 = true, true
		*s = [8]float64{}
	}
	if ok0 {
		s[0], s[1], s[2], s[3], ok0 = sqDist4From(q, rows[0], rows[1], rows[2], rows[3], n, s[0], s[1], s[2], s[3], bound)
	}
	if ok1 {
		s[4], s[5], s[6], s[7], ok1 = sqDist4From(q, rows[4], rows[5], rows[6], rows[7], n, s[4], s[5], s[6], s[7], bound)
	}
	return ok0, ok1
}

// sqDist4From is SqDist4's Go chains resumed at dimension base (a
// multiple of ScanBlock) with partial sums s0…s3. Every product is
// rounded before it is added (the float64 conversions), so no build
// fuses the two into one FMA and the sums stay those of the assembly.
func sqDist4From(q, a0, a1, a2, a3 []float64, base int, s0, s1, s2, s3, bound float64) (float64, float64, float64, float64, bool) {
	n := len(q)
	for ; base < n; base += ScanBlock {
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
			s0 += float64(t0 * t0)
			s1 += float64(t1 * t1)
			s2 += float64(t2 * t2)
			s3 += float64(t3 * t3)
		}
		if s0 > bound && s1 > bound && s2 > bound && s3 > bound {
			return s0, s1, s2, s3, false
		}
	}
	return s0, s1, s2, s3, true
}

// HasAVX2 reports whether this process runs the AVX2 kernels, chosen
// once at start-up from CPUID: this package's distance kernels and the
// LSH signature kernel (internal/lsh).
func HasAVX2() bool { return hasAVX2 }

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
			s += float64(t * t)
		}
		if s > bound {
			return s, false
		}
	}
	return s, true
}
