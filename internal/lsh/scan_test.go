package lsh

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"approxcache/internal/feature"
)

// sameFloat is bit equality, with every NaN equal to every other.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// scanTestVec draws a vector of the kind the kernel tests need:
// descriptor-like values, optionally seeded with a few non-finite ones.
func scanTestVec(rng *rand.Rand, dim int, nonFinite bool) feature.Vector {
	v := make(feature.Vector, dim)
	for d := range v {
		v[d] = rng.Float64()
	}
	if nonFinite {
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64}
		for i := 0; i < 1+rng.Intn(2); i++ {
			v[rng.Intn(dim)] = specials[rng.Intn(len(specials))]
		}
	}
	return v
}

// TestSqDist4MatchesMustSqEuclidean pins the kernels' arithmetic: each
// of the four interleaved chains, and the single-chain kernel that
// scores leftovers, is bit for bit feature.MustSqEuclidean, at
// block-boundary dimensions and on non-finite inputs.
func TestSqDist4MatchesMustSqEuclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range []int{1, 3, 15, 16, 17, 80, 81} {
		for trial := 0; trial < 200; trial++ {
			nonFinite := trial%4 == 3
			q := scanTestVec(rng, dim, nonFinite && trial%8 == 7)
			var a [4]feature.Vector
			for i := range a {
				a[i] = scanTestVec(rng, dim, nonFinite)
			}
			s0, s1, s2, s3, ok := sqDist4(q, a[0], a[1], a[2], a[3], math.Inf(1))
			if !ok {
				t.Fatalf("dim %d: abandoned at an infinite bound", dim)
			}
			for i, got := range [4]float64{s0, s1, s2, s3} {
				if want := feature.MustSqEuclidean(q, a[i]); !sameFloat(got, want) {
					t.Fatalf("dim %d trial %d chain %d: got %v (%#x), want %v (%#x)",
						dim, trial, i, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestSqDist4AbandonIsSound: a kernel may give up only when every full
// distance it was scoring exceeds the bound, and when it does not give
// up its sums are the full distances.
func TestSqDist4AbandonIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	abandoned, abandoned1 := 0, 0
	for _, dim := range []int{1, 3, 15, 16, 17, 80, 81} {
		for trial := 0; trial < 400; trial++ {
			q := scanTestVec(rng, dim, false)
			var a [4]feature.Vector
			var full [4]float64
			for i := range a {
				a[i] = scanTestVec(rng, dim, trial%5 == 4)
				if trial%3 == 0 {
					a[i] = perturb(rng, q, 0.01) // near: below most bounds
				}
				full[i] = feature.MustSqEuclidean(q, a[i])
			}
			// Bounds around the distances themselves, so both outcomes
			// and the equality edge occur.
			bound := full[rng.Intn(4)]
			switch trial % 4 {
			case 1:
				bound *= rng.Float64()
			case 2:
				bound *= 1 + rng.Float64()
			case 3:
				bound = float64(dim) * rng.Float64() / 6
			}
			if got, ok := sqDist1(q, a[0], bound); !ok {
				abandoned1++
				if full[0] <= bound {
					t.Fatalf("dim %d trial %d: single chain abandoned, yet distance %v is within bound %v",
						dim, trial, full[0], bound)
				}
			} else if !sameFloat(got, full[0]) {
				t.Fatalf("dim %d trial %d single chain: got %v, want %v", dim, trial, got, full[0])
			}
			s0, s1, s2, s3, ok := sqDist4(q, a[0], a[1], a[2], a[3], bound)
			if !ok {
				abandoned++
				for i, f := range full {
					if f <= bound {
						t.Fatalf("dim %d trial %d: abandoned, yet distance %d = %v is within bound %v",
							dim, trial, i, f, bound)
					}
				}
				continue
			}
			for i, got := range [4]float64{s0, s1, s2, s3} {
				if !sameFloat(got, full[i]) {
					t.Fatalf("dim %d trial %d chain %d: got %v, want %v", dim, trial, i, got, full[i])
				}
			}
		}
	}
	if abandoned == 0 || abandoned1 == 0 {
		t.Fatal("no trial abandoned: the property was not exercised")
	}
}

// truncateAt is the specification of a radius search: the unbounded
// result cut at the first neighbor farther than radius.
func truncateAt(ns []Neighbor, radius float64) []Neighbor {
	for i, n := range ns {
		if n.Distance > radius {
			return ns[:i]
		}
	}
	return ns
}

func sameNeighbors(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || !sameFloat(a[i].Distance, b[i].Distance) {
			return false
		}
	}
	return true
}

// withinIndex is what the radius-search tests drive.
type withinIndex interface {
	IntoIndex
	NearestWithinInto(q feature.Vector, k int, radius float64, dst []Neighbor) ([]Neighbor, error)
}

var (
	_ withinIndex = (*HyperplaneIndex)(nil)
	_ withinIndex = (*ExactIndex)(nil)
)

// withinTestIndexes builds one index of every kind over dim dimensions.
func withinTestIndexes(t testing.TB, dim int, seed int64) map[string]withinIndex {
	t.Helper()
	must := func(x withinIndex, err error) withinIndex {
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	return map[string]withinIndex{
		"classic":     must(NewHyperplane(dim, 6, 3, seed)),
		"exact":       must(NewExact(dim)),
		"one-table-1": must(NewHyperplane(dim, 1, 1, seed)),
	}
}

// checkWithin compares the radius search against its specification for
// one query at every interesting radius: the fixed ones, and each
// returned neighbor's own distance and the float just below it — the
// boundary the pruning slack exists for.
func checkWithin(t testing.TB, name string, x withinIndex, q feature.Vector, k int, extra ...float64) {
	t.Helper()
	full, err := x.NearestInto(q, k, nil)
	if err != nil {
		t.Fatalf("%s: NearestInto: %v", name, err)
	}
	radii := append([]float64{0, 1e-300, 1e-9, DefaultVoteConfig().MaxDistance, math.Inf(1), math.NaN(), -1}, extra...)
	for _, n := range full {
		radii = append(radii, n.Distance, math.Nextafter(n.Distance, math.Inf(-1)), math.Nextafter(n.Distance, math.Inf(1)))
	}
	buf := make([]Neighbor, 0, k)
	for _, r := range radii {
		got, err := x.NearestWithinInto(q, k, r, buf)
		if err != nil {
			t.Fatalf("%s: NearestWithinInto(r=%v): %v", name, r, err)
		}
		if want := truncateAt(full, r); !sameNeighbors(got, want) {
			t.Fatalf("%s k=%d r=%v:\n got  %v\n want %v\n full %v", name, k, r, got, want, full)
		}
	}
}

// withinWorkload drives inserts (with exact duplicates and re-inserted
// IDs), removals and queries through x, checking the radius search
// after every few mutations.
func withinWorkload(t testing.TB, name string, x withinIndex, dim int, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vecs := clusteredVecs(rng, 96, dim, 6, 0.02)
	var live []ID
	next := ID(1)
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(10); {
		case r < 6 || len(live) < 8:
			v := vecs[rng.Intn(len(vecs))] // repeats: equal vectors, tied distances
			id := next
			if r == 0 && len(live) > 0 {
				id = live[rng.Intn(len(live))] // replace in place
			} else {
				next++
				live = append(live, id)
			}
			if err := x.Insert(id, v); err != nil {
				t.Fatalf("%s: insert: %v", name, err)
			}
		default:
			i := rng.Intn(len(live))
			x.Remove(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if op%4 != 0 {
			continue
		}
		q := vecs[rng.Intn(len(vecs))]
		if rng.Intn(2) == 0 {
			q = perturb(rng, q, 0.01)
		}
		for _, k := range []int{1, 4, insertionSelectK + 8} {
			checkWithin(t, name, x, q, k)
		}
	}
}

// TestNearestWithinEqualsTruncatedNearest is the radius search's
// contract on every index kind: NearestWithinInto(q, k, r) is exactly
// NearestInto(q, k) cut at the first neighbor with Distance > r, under
// churn, ties and duplicates, for radii from 0 to +Inf and NaN.
func TestNearestWithinEqualsTruncatedNearest(t *testing.T) {
	for _, dim := range []int{5, 16, 33} {
		for name, x := range withinTestIndexes(t, dim, 11) {
			name, x := fmt.Sprintf("%s/dim%d", name, dim), x
			t.Run(name, func(t *testing.T) {
				withinWorkload(t, name, x, dim, int64(dim), 240)
			})
		}
	}
}

// TestNearestWithinNonFiniteQuery: a NaN or infinite query makes every
// distance NaN or +Inf; the radius search must still agree with the
// unbounded one (nothing is abandoned on a NaN partial sum).
func TestNearestWithinNonFiniteQuery(t *testing.T) {
	const dim = 16
	rng := rand.New(rand.NewSource(3))
	vecs := clusteredVecs(rng, 64, dim, 4, 0.02)
	for name, x := range withinTestIndexes(t, dim, 5) {
		for i, v := range vecs {
			if err := x.Insert(ID(i+1), v); err != nil {
				t.Fatal(err)
			}
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1)} {
			q := vecs[7].Clone()
			q[3] = bad
			checkWithin(t, name, x, q, 4)
		}
		// A stored vector with an infinite component is infinitely far.
		far := vecs[9].Clone()
		far[0] = math.Inf(1)
		if err := x.Insert(1000, far); err != nil {
			t.Fatal(err)
		}
		checkWithin(t, name, x, vecs[9], 4)
		checkWithin(t, name, x, vecs[9], 80)
	}
}

// TestNearestWithinValidation: the radius search validates like
// NearestInto.
func TestNearestWithinValidation(t *testing.T) {
	for name, x := range withinTestIndexes(t, 8, 1) {
		if _, err := x.NearestWithinInto(make(feature.Vector, 8), 0, 1, nil); err == nil {
			t.Errorf("%s: k=0 accepted", name)
		}
		if _, err := x.NearestWithinInto(make(feature.Vector, 7), 1, 1, nil); err == nil {
			t.Errorf("%s: wrong dimension accepted", name)
		}
	}
}

// FuzzNearestWithin explores index shape, population, k and radius.
func FuzzNearestWithin(f *testing.F) {
	f.Add(int64(1), uint8(4), 0.25, uint8(40))
	f.Add(int64(2), uint8(1), 0.0, uint8(3))
	f.Add(int64(3), uint8(40), math.Inf(1), uint8(90))
	f.Add(int64(4), uint8(7), math.NaN(), uint8(17))
	f.Fuzz(func(t *testing.T, seed int64, k uint8, radius float64, n uint8) {
		if k == 0 {
			k = 1
		}
		const dim = 12
		rng := rand.New(rand.NewSource(seed))
		vecs := clusteredVecs(rng, int(n)+1, dim, 3, 0.03)
		for name, x := range withinTestIndexes(t, dim, seed) {
			for i, v := range vecs {
				if err := x.Insert(ID(i%(len(vecs)/2+1)+1), v); err != nil {
					t.Fatal(err)
				}
			}
			checkWithin(t, name, x, perturb(rng, vecs[0], 0.02), int(k), radius)
		}
	})
}
