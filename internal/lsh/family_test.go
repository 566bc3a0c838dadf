package lsh

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"approxcache/internal/cpu"
	"approxcache/internal/feature"
)

// TestMemoisedSignaturesMatchDirect: whatever the memo holds, signatures
// equals project(v) in every table, and a slot answers only for a
// vector equal to the remembered one bit for bit.
func TestMemoisedSignaturesMatchDirect(t *testing.T) {
	const dim, bits, tables = 24, 16, 5
	rng := rand.New(rand.NewSource(11))
	f := newHashFamily(dim, bits, tables, 3)
	direct := func(v feature.Vector) []uint64 {
		out := make([]uint64, tables)
		f.project(v, out)
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
}

// TestSharedFamilyConcurrentStress runs lookups and inserts on one
// index from several goroutines at once, the way a pool's sessions do on
// their node's one store: every goroutine walks the same short list of
// descriptors, looking each up and then inserting it, so a memo slot one
// goroutine's lookup fills is read or overwritten by another's lookup or
// insert at the same time. Run under -race. Afterwards the index must
// hold exactly the buckets a twin fed the same inserts from one
// goroutine holds.
func TestSharedFamilyConcurrentStress(t *testing.T) {
	const (
		dim, bits, tables, seed = 16, 8, 3, 5
		sessions                = 8
		nvecs                   = 40
		rounds                  = 6
	)
	x, err := NewHyperplane(dim, bits, tables, seed)
	if err != nil {
		t.Fatal(err)
	}
	// vecs[id-1] is the one vector ever stored under id.
	rng := rand.New(rand.NewSource(9))
	vecs := make([]feature.Vector, nvecs)
	for i := range vecs {
		vecs[i] = randVec(rng, dim)
	}
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			dst := make([]Neighbor, 0, 4)
			for r := 0; r < rounds; r++ {
				for i := range vecs {
					j := (i + s) % len(vecs)
					q := vecs[j]
					ns, err := x.NearestInto(q, 4, dst)
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
					if err := x.Insert(ID(j+1), q); err != nil {
						t.Error(err)
						return
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
			t.Fatalf("candidates %v, single-goroutine twin %v", got, want)
		}
	}
}

// TestSignatureKernelsMatchPlanes: the blocked signature kernels agree
// bit for bit with a per-plane scalar dot product (refIndex, which
// draws each plane in the family's (table, bit, dim) order) on every
// table: the Go kernel always, the AVX2 kernel where the host has it.
// Shapes cover plane counts in whole, partial and several blocks (past
// the 256 that project keeps on its stack), and dimensions off the
// vector width; vectors include ±0, NaN, ±Inf, subnormal and huge
// components, whose NaN or signed-zero dot products decide a bit as
// plainly as any other.
func TestSignatureKernelsMatchPlanes(t *testing.T) {
	if !cpu.HasAVX2 {
		t.Log("host has no AVX2: checking the Go kernel alone")
	}
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	rng := rand.New(rand.NewSource(17))
	for _, shape := range [][3]int{{80, 12, 4}, {1, 1, 1}, {3, 7, 3}, {33, 16, 1}, {17, 13, 5}, {80, 64, 3}, {9, 64, 5}, {288, 20, 2}} {
		dim, bits, tables := shape[0], shape[1], shape[2]
		f := newHashFamily(dim, bits, tables, 9)
		ref := newRefIndex(dim, bits, tables, 9)
		nwords := (len(f.planes)/(dim*planeBlock) + 3) / 4
		for i := 0; i < 300; i++ {
			v := randVec(rng, dim)
			switch i % 4 {
			case 1: // a few special components
				for j := 0; j < 1+rng.Intn(3); j++ {
					v[rng.Intn(dim)] = specials[rng.Intn(len(specials))]
				}
			case 2: // only zeros and subnormals: dot products at ±0
				for d := range v {
					v[d] = specials[rng.Intn(2)+5*rng.Intn(2)]
				}
			case 3: // tiny magnitudes, so rounding decides signs
				for d := range v {
					v[d] = math.Ldexp(v[d], -1060)
				}
			}
			goWords := make([]uint64, nwords)
			signBlocksGo(v, f.planes, goWords)
			if cpu.HasAVX2 {
				asmWords := make([]uint64, nwords)
				signBlocksAVX2(v, f.planes, asmWords)
				if !slices.Equal(asmWords, goWords) {
					t.Fatalf("shape %v vec %d: AVX2 kernel bits %x, Go kernel %x", shape, i, asmWords, goWords)
				}
			}
			got := make([]uint64, tables)
			f.project(v, got)
			for tb, sig := range got {
				if want := ref.signature(tb, v); sig != want {
					t.Fatalf("shape %v vec %d table %d: signature %x, per-plane %x", shape, i, tb, sig, want)
				}
			}
		}
	}
}
