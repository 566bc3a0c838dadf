package lsh

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"approxcache/internal/feature"
)

// foreignIndex is an Index ShareFamily knows nothing about (what a
// wrapper around a HyperplaneIndex looks like from outside).
type foreignIndex struct{ Index }

// TestShardsShareOneFamily: eight identically built shard indexes end
// up on one hyperplane matrix — the same slice, by pointer — while an
// index that hashes differently, is centered, or is of a foreign type
// keeps its own.
func TestShardsShareOneFamily(t *testing.T) {
	const dim, bits, tables, seed = 80, 12, 4, 1
	build := func(t *testing.T, tun Tuning) []*HyperplaneIndex {
		t.Helper()
		shards := make([]*HyperplaneIndex, 8)
		for i := range shards {
			x, err := NewHyperplaneTuned(dim, bits, tables, seed, tun)
			if err != nil {
				t.Fatal(err)
			}
			shards[i] = x
		}
		return shards
	}
	asIndexes := func(xs []*HyperplaneIndex) []Index {
		out := make([]Index, len(xs))
		for i, x := range xs {
			out[i] = x
		}
		return out
	}
	t.Run("classic", func(t *testing.T) {
		shards := build(t, Tuning{})
		if &shards[0].fam.planes[0] == &shards[1].fam.planes[0] {
			t.Fatal("fresh indexes already share a matrix")
		}
		ShareFamily(asIndexes(shards)...)
		for i, x := range shards {
			if x.fam != shards[0].fam || &x.fam.planes[0] != &shards[0].fam.planes[0] {
				t.Fatalf("shard %d keeps its own hyperplanes", i)
			}
		}
	})
	t.Run("sketch", func(t *testing.T) {
		shards := build(t, Tuning{Probes: 3, SketchBits: 64})
		ShareFamily(asIndexes(shards)...)
		for i, x := range shards {
			if &x.fam.sketchPlanes[0] != &shards[0].fam.sketchPlanes[0] {
				t.Fatalf("shard %d keeps its own sketch hyperplanes", i)
			}
		}
	})
	t.Run("adaptive", func(t *testing.T) {
		cfg := DefaultAdaptiveConfig(dim)
		a, err := NewAdaptive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewAdaptive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ShareFamily(a, b)
		if a.inner.Load().fam != b.inner.Load().fam {
			t.Fatal("adaptive shards keep their own hyperplanes")
		}
	})
	t.Run("unshareable", func(t *testing.T) {
		first, err := NewHyperplane(dim, bits, tables, seed)
		if err != nil {
			t.Fatal(err)
		}
		otherSeed, _ := NewHyperplane(dim, bits, tables, seed+1)
		otherBits, _ := NewHyperplane(dim, bits+1, tables, seed)
		otherTables, _ := NewHyperplane(dim, bits, tables+1, seed)
		otherDim, _ := NewHyperplane(dim+1, bits, tables, seed)
		otherSketch, _ := NewHyperplaneTuned(dim, bits, tables, seed, Tuning{SketchBits: 64})
		centered, _ := NewHyperplaneCentered(dim, bits, tables, seed, make(feature.Vector, dim))
		twin, _ := NewHyperplane(dim, bits, tables, seed)
		wrapped := foreignIndex{twin}
		exact, _ := NewExact(dim)
		// More probes hash the same: that one does share.
		probes, _ := NewHyperplaneTuned(dim, bits, tables, seed, Tuning{Probes: 4})
		ShareFamily(first, otherSeed, otherBits, otherTables, otherDim, otherSketch, centered, wrapped, exact, probes)
		for name, x := range map[string]*HyperplaneIndex{
			"seed": otherSeed, "bits": otherBits, "tables": otherTables, "dim": otherDim,
			"sketch": otherSketch, "centered": centered, "foreign": twin,
		} {
			if x.fam == first.fam {
				t.Errorf("index differing in %s adopted the family", name)
			}
		}
		if probes.fam != first.fam {
			t.Error("index differing only in probe count did not adopt the family")
		}
		// A centered index first in line is skipped, not adopted.
		a, _ := NewHyperplane(dim, bits, tables, seed)
		b, _ := NewHyperplane(dim, bits, tables, seed)
		ShareFamily(centered, a, b)
		if a.fam == centered.fam || a.fam != b.fam {
			t.Error("a centered first index broke sharing among the rest")
		}
	})
}

// TestMemoisedSignaturesMatchDirect: whatever the memo holds, signatures
// equals signature(t, v) in every table, and a slot answers only for a
// vector equal to the remembered one bit for bit.
func TestMemoisedSignaturesMatchDirect(t *testing.T) {
	const dim, bits, tables = 24, 16, 5
	rng := rand.New(rand.NewSource(11))
	f := newHashFamily(dim, bits, tables, 3, 0)
	direct := func(v feature.Vector) []uint64 {
		out := make([]uint64, tables)
		for tb := range out {
			out[tb] = f.signature(tb, v)
		}
		return out
	}
	check := func(v feature.Vector, wantHit bool, why string) {
		t.Helper()
		probe := make([]uint64, tables)
		if hit := f.memoLoad(v, probe); hit != wantHit {
			t.Fatalf("%s: memo hit = %v, want %v", why, hit, wantHit)
		}
		got := make([]uint64, tables)
		f.signatures(v, got)
		if want := direct(v); !slices.Equal(got, want) {
			t.Fatalf("%s: signatures %x, direct %x", why, got, want)
		}
	}

	// Random traffic with repeats: a small pool of vectors, so most
	// calls find their vector in one of the four slots and some find it
	// evicted.
	pool := make([]feature.Vector, 6)
	for i := range pool {
		pool[i] = randVec(rng, dim)
	}
	for i := 0; i < 5000; i++ {
		v := pool[rng.Intn(len(pool))]
		if rng.Intn(4) == 0 {
			v = randVec(rng, dim)
		}
		got := make([]uint64, tables)
		f.signatures(v, got)
		if want := direct(v); !slices.Equal(got, want) {
			t.Fatalf("call %d: signatures %x, direct %x", i, got, want)
		}
	}

	// Adversarial neighbours of a remembered vector.
	base := randVec(rng, dim)
	check(base, false, "fresh vector")
	check(base, true, "same vector again")
	check(base.Clone(), true, "equal copy in other memory")

	last := base.Clone()
	last[dim-1] = math.Nextafter(last[dim-1], math.Inf(1))
	check(last, false, "equal prefix, last component one ulp off")

	zero := base.Clone()
	zero[3] = 0
	check(zero, false, "+0 variant, first seen")
	negZero := zero.Clone()
	negZero[3] = math.Copysign(0, -1)
	if zero[3] != negZero[3] || math.Float64bits(zero[3]) == math.Float64bits(negZero[3]) {
		t.Fatal("test setup: want +0 == -0 with different bits")
	}
	check(negZero, false, "-0 where +0 is remembered")
	check(zero, true, "+0 variant again")

	nan := base.Clone()
	nan[dim/2] = math.NaN()
	check(nan, false, "NaN vector, first seen")
	check(nan, false, "the very same NaN vector again")
	check(nan, false, "and again")
	nan[0] = math.NaN()
	check(nan, false, "NaN in the first component")
	check(nan, false, "NaN in the first component, again")

	// A centered family never consults or fills the memo.
	c := newHashFamily(dim, bits, tables, 3, 0)
	c.center = randVec(rng, dim)
	got := make([]uint64, tables)
	c.signatures(base, got)
	c.signatures(base, got)
	for tb := range got {
		if got[tb] != c.signature(tb, base) {
			t.Fatalf("centered table %d: signatures %x, direct %x", tb, got[tb], c.signature(tb, base))
		}
	}
	if c.memoLoad(base, got) {
		t.Fatal("centered family filled its memo")
	}
}

// TestSharedFamilyConcurrentStress runs lookups and inserts on all eight
// shards of one family at once, the way a serving node's sessions do:
// every goroutine walks the same short list of descriptors, so memo
// slots are filled, read and overwritten by different shards at the
// same time. Run under -race. Afterwards every shard must hold exactly
// the buckets an unshared twin fed the same inserts holds.
func TestSharedFamilyConcurrentStress(t *testing.T) {
	const (
		dim, bits, tables, seed = 16, 8, 3, 5
		shards                  = 8
		perShard                = 40
		rounds                  = 6
	)
	idxs := make([]Index, shards)
	for i := range idxs {
		x, err := NewHyperplane(dim, bits, tables, seed)
		if err != nil {
			t.Fatal(err)
		}
		idxs[i] = x
	}
	ShareFamily(idxs...)
	// vecOf(id) is the one vector ever stored under id, in any shard.
	rng := rand.New(rand.NewSource(9))
	vecs := make([]feature.Vector, perShard)
	for i := range vecs {
		vecs[i] = randVec(rng, dim)
	}
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(2)
		go func(x *HyperplaneIndex) { // the shard's writer
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, v := range vecs {
					if err := x.Insert(ID(i+1), v); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(idxs[s].(*HyperplaneIndex))
		go func(s int) { // a session: every query goes to every shard
			defer wg.Done()
			dst := make([]Neighbor, 0, 4)
			for r := 0; r < rounds; r++ {
				for i := range vecs {
					q := vecs[(i+s)%len(vecs)]
					for _, idx := range idxs {
						ns, err := idx.(*HyperplaneIndex).NearestInto(q, 4, dst)
						if err != nil {
							t.Error(err)
							return
						}
						for _, n := range ns {
							if want := feature.MustEuclidean(q, vecs[n.ID-1]); n.Distance != want {
								t.Errorf("neighbor %d at %v, its vector is at %v", n.ID, n.Distance, want)
								return
							}
						}
					}
				}
			}
		}(s)
	}
	wg.Wait()

	twin, err := NewHyperplane(dim, bits, tables, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vecs {
		if err := twin.Insert(ID(i+1), v); err != nil {
			t.Fatal(err)
		}
	}
	for s, idx := range idxs {
		x := idx.(*HyperplaneIndex)
		for _, q := range vecs {
			got, err := x.Candidates(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := twin.Candidates(q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDSet(got, want) {
				t.Fatalf("shard %d: candidates %v, unshared twin %v", s, got, want)
			}
		}
	}
}
