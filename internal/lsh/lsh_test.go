package lsh

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"approxcache/internal/feature"
)

func randUnit(r *rand.Rand, dim int) feature.Vector {
	v := make(feature.Vector, dim)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	v.Normalize()
	return v
}

func TestNewHyperplaneValidation(t *testing.T) {
	tests := []struct {
		name              string
		dim, bits, tables int
	}{
		{"zero dim", 0, 8, 2},
		{"zero bits", 8, 0, 2},
		{"too many bits", 8, 65, 2},
		{"zero tables", 8, 8, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewHyperplane(tt.dim, tt.bits, tt.tables, 1); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestInsertDimMismatch(t *testing.T) {
	x, err := NewHyperplane(4, 8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Insert(1, feature.Vector{1, 2}); !errors.Is(err, feature.ErrDimensionMismatch) {
		t.Fatalf("err = %v, want dimension mismatch", err)
	}
	if _, err := x.CandidatesInto(feature.Vector{1}, nil); !errors.Is(err, feature.ErrDimensionMismatch) {
		t.Fatalf("candidates err = %v", err)
	}
	if _, err := x.Nearest(feature.Vector{1}, 3); !errors.Is(err, feature.ErrDimensionMismatch) {
		t.Fatalf("nearest err = %v", err)
	}
}

func TestInsertRemoveLen(t *testing.T) {
	x, err := NewHyperplane(4, 8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	v := feature.Vector{1, 0, 0, 0}
	if err := x.Insert(1, v); err != nil {
		t.Fatal(err)
	}
	if err := x.Insert(2, v); err != nil {
		t.Fatal(err)
	}
	if x.Len() != 2 {
		t.Fatalf("Len = %d, want 2", x.Len())
	}
	x.Remove(1)
	if x.Len() != 1 {
		t.Fatalf("Len = %d, want 1", x.Len())
	}
	x.Remove(1) // double remove is a no-op
	if x.Len() != 1 {
		t.Fatalf("Len after double remove = %d", x.Len())
	}
	// Removed items never appear as candidates.
	cands, err := x.CandidatesInto(v, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range cands {
		if id == 1 {
			t.Fatal("removed id returned as candidate")
		}
	}
}

func TestInsertReplacesExisting(t *testing.T) {
	x, err := NewHyperplane(4, 8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := feature.Vector{1, 0, 0, 0}
	b := feature.Vector{-1, 0, 0, 0}
	if err := x.Insert(1, a); err != nil {
		t.Fatal(err)
	}
	if err := x.Insert(1, b); err != nil {
		t.Fatal(err)
	}
	if x.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after replace", x.Len())
	}
	ns, err := x.Nearest(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 1 || ns[0].Distance > 1e-9 {
		t.Fatalf("replaced vector not found exactly: %+v", ns)
	}
}

func TestInsertDoesNotAliasCaller(t *testing.T) {
	x, err := NewHyperplane(2, 8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	v := feature.Vector{1, 0}
	if err := x.Insert(1, v); err != nil {
		t.Fatal(err)
	}
	v[0] = -1 // mutate caller's slice
	ns, err := x.Nearest(feature.Vector{1, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 1 || ns[0].Distance > 1e-9 {
		t.Fatal("index aliased caller's vector")
	}
}

func TestNearestFindsIdenticalVector(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	x, err := NewHyperplane(16, 12, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	vs := make([]feature.Vector, 50)
	for i := range vs {
		vs[i] = randUnit(r, 16)
		if err := x.Insert(ID(i), vs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// An identical query always collides with itself in every table.
	for i, v := range vs {
		ns, err := x.Nearest(v, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(ns) == 0 || ns[0].ID != ID(i) || ns[0].Distance > 1e-9 {
			t.Fatalf("query %d did not find itself: %+v", i, ns)
		}
	}
}

func TestNearestKValidation(t *testing.T) {
	x, err := NewHyperplane(4, 8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Nearest(feature.Vector{1, 0, 0, 0}, 0); err == nil {
		t.Fatal("k=0 should error")
	}
	e, err := NewExact(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Nearest(feature.Vector{1, 0, 0, 0}, -1); err == nil {
		t.Fatal("exact k<0 should error")
	}
}

func TestExactIndex(t *testing.T) {
	if _, err := NewExact(0); err == nil {
		t.Fatal("zero dim should error")
	}
	e, err := NewExact(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(1, feature.Vector{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(2, feature.Vector{1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(3, feature.Vector{0, 3}); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(9, feature.Vector{1}); !errors.Is(err, feature.ErrDimensionMismatch) {
		t.Fatalf("dim mismatch err = %v", err)
	}
	ns, err := e.Nearest(feature.Vector{0.1, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 2 || ns[0].ID != 1 || ns[1].ID != 2 {
		t.Fatalf("nearest = %+v", ns)
	}
	e.Remove(1)
	if e.Len() != 2 {
		t.Fatalf("Len = %d", e.Len())
	}
	ns, err = e.Nearest(feature.Vector{0.1, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ns[0].ID != 2 {
		t.Fatalf("after remove nearest = %+v", ns)
	}
}

func TestExactNearestDeterministicTieBreak(t *testing.T) {
	e, err := NewExact(1)
	if err != nil {
		t.Fatal(err)
	}
	// Two points equidistant from the query.
	if err := e.Insert(7, feature.Vector{1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(3, feature.Vector{-1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ns, err := e.Nearest(feature.Vector{0}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if ns[0].ID != 3 || ns[1].ID != 7 {
			t.Fatalf("tie break not by ID: %+v", ns)
		}
	}
}

// LSH recall: against exact ground truth over clustered data, the LSH
// nearest neighbor must match the true nearest neighbor most of the
// time. This is the recall guarantee the cache's hit quality rests on.
func TestLSHRecallOnClusteredData(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	const (
		dim      = 32
		clusters = 8
		perC     = 20
	)
	x, err := NewHyperplane(dim, 10, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExact(dim)
	if err != nil {
		t.Fatal(err)
	}
	centers := make([]feature.Vector, clusters)
	for c := range centers {
		centers[c] = randUnit(r, dim)
	}
	id := ID(0)
	for c := 0; c < clusters; c++ {
		for i := 0; i < perC; i++ {
			v := centers[c].Clone()
			for d := range v {
				v[d] += r.NormFloat64() * 0.05
			}
			v.Normalize()
			if err := x.Insert(id, v); err != nil {
				t.Fatal(err)
			}
			if err := e.Insert(id, v); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	const queries = 100
	hits := 0
	for i := 0; i < queries; i++ {
		c := r.Intn(clusters)
		q := centers[c].Clone()
		for d := range q {
			q[d] += r.NormFloat64() * 0.05
		}
		q.Normalize()
		truth, err := e.Nearest(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := x.Nearest(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(approx) > 0 && approx[0].ID == truth[0].ID {
			hits++
		}
	}
	if hits < 70 {
		t.Fatalf("LSH recall@1 = %d/100, want >= 70", hits)
	}
}

// clusteredVecs draws n vectors around clusters all-positive centers
// (like image descriptors), sigma apart per dimension.
func clusteredVecs(rng *rand.Rand, n, dim, clusters int, sigma float64) []feature.Vector {
	centers := make([]feature.Vector, clusters)
	for c := range centers {
		centers[c] = make(feature.Vector, dim)
		for d := range centers[c] {
			centers[c][d] = rng.Float64()
		}
	}
	out := make([]feature.Vector, n)
	for i := range out {
		out[i] = perturb(rng, centers[i%clusters], sigma)
	}
	return out
}

// perturb returns v with Gaussian noise of spread sigma on every
// dimension.
func perturb(rng *rand.Rand, v feature.Vector, sigma float64) feature.Vector {
	q := make(feature.Vector, len(v))
	for d := range q {
		q[d] = v[d] + rng.NormFloat64()*sigma
	}
	return q
}

// recallAgainst measures idx's top-k recall against exact ground truth
// over the given queries.
func recallAgainst(t *testing.T, idx Index, exact Index, queries []feature.Vector, k int) float64 {
	t.Helper()
	hits, want := 0, 0
	for _, q := range queries {
		truth, err := exact.Nearest(q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := idx.Nearest(q, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range truth {
			want++
			for _, nb := range got {
				if nb.ID == tr.ID {
					hits++
					break
				}
			}
		}
	}
	return float64(hits) / float64(want)
}

// TestExactBucketRecallGrowsWithTables pins the exact-bucket recall
// baseline on a fragmented-bucket workload: signed Gaussian clusters,
// queried well off their source entry, so a single bucket per table
// genuinely misses. The same seed draws the same first tables whatever
// the table count, so each index's candidates contain the smaller
// one's and recall can only grow with tables.
func TestExactBucketRecallGrowsWithTables(t *testing.T) {
	const (
		dim     = 32
		n       = 512
		k       = 2
		bits    = 10
		seed    = 17
		queries = 128
	)
	rng := rand.New(rand.NewSource(seed))
	centers := make([]feature.Vector, 64)
	for c := range centers {
		centers[c] = make(feature.Vector, dim)
		for d := range centers[c] {
			centers[c][d] = rng.NormFloat64()
		}
	}
	vecs := make([]feature.Vector, n)
	for i := range vecs {
		vecs[i] = perturb(rng, centers[i%len(centers)], 0.05)
	}
	qs := make([]feature.Vector, queries)
	for i := range qs {
		qs[i] = perturb(rng, vecs[rng.Intn(n)], 0.15)
	}
	exact, err := NewExact(dim)
	if err != nil {
		t.Fatal(err)
	}
	indexes := []Index{exact}
	tableCounts := []int{1, 2, 4}
	for _, tables := range tableCounts {
		x, err := NewHyperplane(dim, bits, tables, seed)
		if err != nil {
			t.Fatal(err)
		}
		indexes = append(indexes, x)
	}
	for i, v := range vecs {
		for _, idx := range indexes {
			if err := idx.Insert(ID(i), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	prev := 0.0
	for i, tables := range tableCounts {
		r := recallAgainst(t, indexes[i+1], exact, qs, k)
		t.Logf("tables=%d recall@%d=%.3f", tables, k, r)
		if r < prev {
			t.Fatalf("recall fell from %.3f to %.3f at %d tables", prev, r, tables)
		}
		prev = r
	}
	// 0.996 measured: four tables find nearly every neighbor, but not
	// all, so the workload still tells configurations apart.
	if prev >= 1 || prev < 0.95 {
		t.Fatalf("4-table recall %.3f, want in [0.95, 1)", prev)
	}
}

// occupancy is the index's bucket count over all tables and its largest
// bucket, read under the index lock.
func (x *HyperplaneIndex) occupancy() (buckets, largest int) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	for _, table := range x.buckets {
		for _, b := range table {
			buckets++
			largest = max(largest, len(b))
		}
	}
	return buckets, largest
}

func TestStats(t *testing.T) {
	x, err := NewHyperplane(8, 6, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := x.occupancy(); x.Len() != 0 || b != 0 {
		t.Fatalf("empty index: %d items in %d buckets", x.Len(), b)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		if err := x.Insert(ID(i), randUnit(r, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if x.Len() != 40 {
		t.Fatalf("Len = %d", x.Len())
	}
	if len(x.buckets) != 3 || x.bits != 6 {
		t.Fatalf("shape = %d tables × %d bits", len(x.buckets), x.bits)
	}
	// Every item sits in one bucket of each table.
	if b, largest := x.occupancy(); b == 0 || b > 3*40 || largest == 0 {
		t.Fatalf("occupancy: %d buckets, largest %d", b, largest)
	}
}

// Property: for any set of vectors, every LSH candidate list contains no
// duplicates and only live IDs, and an identical query's own ID is
// always among its candidates.
func TestCandidatesProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 4 + r.Intn(12)
		x, err := NewHyperplane(dim, 8, 3, seed)
		if err != nil {
			return false
		}
		n := 5 + r.Intn(30)
		vs := make([]feature.Vector, n)
		for i := range vs {
			vs[i] = randUnit(r, dim)
			if err := x.Insert(ID(i), vs[i]); err != nil {
				return false
			}
		}
		removed := ID(r.Intn(n))
		x.Remove(removed)
		for i, v := range vs {
			cands, err := x.CandidatesInto(v, nil)
			if err != nil {
				return false
			}
			seen := make(map[ID]struct{}, len(cands))
			selfFound := false
			for _, c := range cands {
				if _, dup := seen[c]; dup {
					return false
				}
				seen[c] = struct{}{}
				if c == removed {
					return false
				}
				if c == ID(i) {
					selfFound = true
				}
			}
			if ID(i) != removed && !selfFound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentInsertQuery(t *testing.T) {
	x, err := NewHyperplane(8, 8, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 500; i++ {
			_ = x.Insert(ID(i), randUnit(r, 8))
			if i%3 == 0 {
				x.Remove(ID(i / 2))
			}
		}
	}()
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		if _, err := x.Nearest(randUnit(r, 8), 3); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}
