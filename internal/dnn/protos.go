package dnn

import (
	"fmt"
	"math"
	"math/rand"

	"approxcache/internal/feature"
)

// The classifier's nearest-prototype search. The prototypes are fixed
// once the classifier is built, so they live in one exact-size arena in
// class order. A large vocabulary also carries a low-dimensional
// projection that filters the scan without changing its answer:
//
// If the rows of B are orthonormal, ‖B(q−p)‖² ≤ ‖q−p‖² for every q and p
// (Bessel's inequality). Each prototype's coordinates Bp are stored, so
// one projection of the query gives a lower bound on its squared
// distance to every class at projRows multiplications per class instead
// of dim. A class whose bound exceeds the runner-up found so far cannot
// be among the two nearest, and is never scored. The basis spans the
// prototypes' directions of largest spread, where the bound is tightest.
//
// Classes that survive the filter are scored by the same ascending-order
// sum of squares lsh's exact scan uses, so every distance reported is
// bit-identical to a full scan's and so is the decision.

// projRows is the number of basis rows of a projection, a multiple of
// four.
const projRows = 32

// boundSlack shrinks every lower bound by this relative amount before
// comparing it with a distance: the basis is orthonormal only up to
// rounding (withinIdentity holds it to gramTol), and the bound itself is
// a rounded sum.
const boundSlack = 1e-9

// gramTol is how far any entry of the basis's Gram matrix may sit from
// the identity's. It keeps ‖B‖² within projRows·gramTol of 1, far below
// boundSlack.
const gramTol = 1e-12

// coords are one vector's projRows coordinates in the basis, in groups
// of four: a bound is four interleaved sums over fixed-size arrays.
type coords [projRows / 4][4]float64

// protoTable is the static prototype set of a classifier.
type protoTable struct {
	n, dim int
	arena  []float64 // class i's prototype at arena[i*dim:(i+1)*dim]

	// The projection, nil when the vocabulary is too small to pay for
	// one (see projectionPays); every bound is then 0.
	basis  []float64 // row j at basis[j*dim:(j+1)*dim]
	coords []coords  // class i's coordinates at coords[i]
	// etaScale·(‖q‖+maxNorm)² is the absolute slack of a bound; see
	// lowerBounds.
	etaScale, maxNorm float64
}

// projectionPays reports whether a projection is worth building for n
// prototypes of dim dimensions: when its bytes (basis and coordinates)
// are at most a quarter of the arena's. At dim 288 that is n ≥ 231;
// below it a plain scan is cheap and the table stays small.
func projectionPays(n, dim int) bool {
	return 4*projRows*(dim+n) <= n*dim
}

// newProtoTable builds the table over protos, which all have length dim
// and finite components.
func newProtoTable(protos [][]float64, dim int) (*protoTable, error) {
	t := &protoTable{n: len(protos), dim: dim, arena: make([]float64, 0, len(protos)*dim)}
	for i, p := range protos {
		for _, x := range p {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("dnn: prototype %d has a non-finite component", i)
			}
		}
		t.arena = append(t.arena, p...)
	}
	if projectionPays(t.n, dim) {
		t.project()
	}
	return t, nil
}

// row returns class i's prototype.
func (t *protoTable) row(i int) []float64 {
	return t.arena[i*t.dim : (i+1)*t.dim : (i+1)*t.dim]
}

// project builds the basis by seeded randomized block power iteration
// over the centred prototypes — two rounds of Xcᵀ(Xc·Q), each followed
// by modified Gram–Schmidt run twice — and stores each prototype's
// coordinates. Only the spanned subspace matters, so no eigenvectors are
// needed. Prototypes spanning fewer than projRows directions, or a
// basis that fails the orthonormality check, leave the table without a
// projection.
func (t *protoTable) project() {
	n, dim := t.n, t.dim
	mean := make([]float64, dim)
	for i := 0; i < n; i++ {
		for d, x := range t.row(i) {
			mean[d] += x
		}
	}
	for d := range mean {
		mean[d] /= float64(n)
	}
	rng := rand.New(rand.NewSource(1))
	q := make([]float64, projRows*dim)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	xc := make([]float64, dim)
	for round := 0; round < 2; round++ {
		next := make([]float64, projRows*dim)
		for i := 0; i < n; i++ {
			for d, x := range t.row(i) {
				xc[d] = x - mean[d]
			}
			for j := 0; j < projRows; j++ {
				y := dot(xc, q[j*dim:(j+1)*dim])
				out := next[j*dim : (j+1)*dim]
				for d, x := range xc {
					out[d] += y * x
				}
			}
		}
		if !orthonormalize(next, dim) || !orthonormalize(next, dim) {
			return
		}
		q = next
	}
	if !withinIdentity(q, dim) {
		return
	}
	t.basis = q
	t.coords = make([]coords, n)
	for i := range t.coords {
		t.projectInto(t.row(i), &t.coords[i])
		t.maxNorm = math.Max(t.maxNorm, math.Sqrt(dot(t.row(i), t.row(i))))
	}
	// See lowerBounds: a tenth of boundSlack covers the rounding that
	// scales with the bound, this covers the rest.
	e := float64(dim+2) * 0x1p-52
	t.etaScale = projRows * e * e / (boundSlack / 10)
}

// orthonormalize runs modified Gram–Schmidt over the projRows rows of a
// (each dim long) in place. It reports false if a row is numerically in
// the span of the ones before it.
func orthonormalize(a []float64, dim int) bool {
	for j := 0; j < projRows; j++ {
		v := a[j*dim : (j+1)*dim]
		before := math.Sqrt(dot(v, v))
		for l := 0; l < j; l++ {
			u := a[l*dim : (l+1)*dim]
			r := dot(u, v)
			for d := range v {
				v[d] -= r * u[d]
			}
		}
		norm := math.Sqrt(dot(v, v))
		if !(norm > 1e-8*before) {
			return false
		}
		for d := range v {
			v[d] /= norm
		}
	}
	return true
}

// withinIdentity reports whether the projRows rows of b have a Gram
// matrix within gramTol of the identity, entry by entry.
func withinIdentity(b []float64, dim int) bool {
	for i := 0; i < projRows; i++ {
		for j := 0; j <= i; j++ {
			g := dot(b[i*dim:(i+1)*dim], b[j*dim:(j+1)*dim])
			if i == j {
				g--
			}
			if math.Abs(g) > gramTol {
				return false
			}
		}
	}
	return true
}

// projectInto writes v's coordinates in the basis into dst, four rows
// per pass over v. The query and the prototypes go through this one
// function.
func (t *protoTable) projectInto(v []float64, dst *coords) {
	dim := t.dim
	for g := range dst {
		b := t.basis[4*g*dim : 4*(g+1)*dim]
		b0, b1, b2, b3 := b[:dim][:len(v)], b[dim : 2*dim][:len(v)], b[2*dim : 3*dim][:len(v)], b[3*dim:][:len(v)]
		var s0, s1, s2, s3 float64
		for d, x := range v {
			s0 += x * b0[d]
			s1 += x * b1[d]
			s2 += x * b2[d]
			s3 += x * b3[d]
		}
		dst[g] = [4]float64{s0, s1, s2, s3}
	}
}

// lowerBounds writes into lb, for every class i, a number no larger
// than the computed squared distance from q to prototype i, projecting
// q into pq on the way. Without a projection every bound is 0.
//
// Why the slack is enough: the computed coordinates are off by at most
// e = (dim+2)·2⁻⁵²·(‖q‖+‖p‖) each, so the rounded bound is at most
// (‖B(q−p)‖ + √projRows·e)² and a little. Splitting the cross term as
// 2ab ≤ λa² + b²/λ with λ = boundSlack/10 leaves a relative excess the
// slack absorbs and an absolute one of projRows·e²/λ, which is at most
// etaScale·(‖q‖+maxNorm)².
func (t *protoTable) lowerBounds(q []float64, pq *coords, lb []float64) {
	if t.coords == nil {
		clear(lb)
		return
	}
	t.projectInto(q, pq)
	s := math.Sqrt(dot(q, q)) + t.maxNorm
	eta := t.etaScale * s * s
	cs := t.coords[:len(lb)]
	for i := range cs {
		c := &cs[i]
		var s0, s1, s2, s3 float64
		for g := range c {
			t0, t1, t2, t3 := pq[g][0]-c[g][0], pq[g][1]-c[g][1], pq[g][2]-c[g][2], pq[g][3]-c[g][3]
			s0 += t0 * t0
			s1 += t1 * t1
			s2 += t2 * t2
			s3 += t3 * t3
		}
		lb[i] = ((s0+s1)+(s2+s3))*(1-boundSlack) - eta
	}
}

// nearest2 returns the class whose prototype is nearest q — the lower
// class on a tie — with its squared distance and the runner-up's (+Inf
// with a single class). q must be finite; pq and lb (length n) are
// scratch.
func (t *protoTable) nearest2(q []float64, pq *coords, lb []float64) (best int, d1, d2 float64) {
	t.lowerBounds(q, pq, lb)
	// Seed the selection with the two smallest bounds, scored exactly.
	i0, i1 := 0, -1
	for i := 1; i < len(lb); i++ {
		switch {
		case lb[i] < lb[i0]:
			i0, i1 = i, i0
		case i1 < 0 || lb[i] < lb[i1]:
			i1 = i
		}
	}
	d0, _ := feature.SqDist(q, t.row(i0), math.Inf(1))
	sel := top2{best: i0, second: -1, d1: d0, d2: math.Inf(1)}
	if i1 >= 0 {
		d, _ := feature.SqDist(q, t.row(i1), math.Inf(1))
		sel.offer(i1, d)
	}
	// Refine every class the bounds cannot rule out, four at a time. A
	// sum abandoned past the runner-up is still offered: it is larger
	// than the runner-up, so the selection refuses it.
	var group [4]int
	n := 0
	for i, b := range lb {
		if i == i0 || i == i1 || b > sel.d2 {
			continue
		}
		group[n] = i
		if n++; n == len(group) {
			s0, s1, s2, s3, _ := feature.SqDist4(q, t.row(group[0]), t.row(group[1]), t.row(group[2]), t.row(group[3]), sel.d2)
			sel.offer(group[0], s0)
			sel.offer(group[1], s1)
			sel.offer(group[2], s2)
			sel.offer(group[3], s3)
			n = 0
		}
	}
	for _, i := range group[:n] {
		d, _ := feature.SqDist(q, t.row(i), sel.d2)
		sel.offer(i, d)
	}
	return sel.best, sel.d1, sel.d2
}

// top2 is a running selection of the two nearest classes under the
// (squared distance, class) order.
type top2 struct {
	best, second int
	d1, d2       float64
}

// offer considers class i at squared distance d.
func (s *top2) offer(i int, d float64) {
	switch {
	case d < s.d1 || d == s.d1 && i < s.best:
		s.best, s.second = i, s.best
		s.d1, s.d2 = d, s.d1
	case d < s.d2 || d == s.d2 && i < s.second:
		s.second, s.d2 = i, d
	}
}

// dot is the inner product of two equally long vectors, summed in four
// interleaved chains.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}
