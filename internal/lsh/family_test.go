package lsh

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"weak"

	"approxcache/internal/cpu"
	"approxcache/internal/feature"
)

// TestSharedFamilyConcurrentStress runs lookups and inserts on one
// index from several goroutines at once, the way a pool's sessions do on
// their node's one store: every goroutine walks the same short list of
// descriptors, looking each up and then inserting it, so one
// goroutine's lookup of a vector races another's insert of the same
// vector. Run under -race. Afterwards the index must hold exactly the
// buckets a twin fed the same inserts from one goroutine holds.
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
	var got, want []ID
	for _, q := range vecs {
		if got, err = x.CandidatesInto(q, got); err != nil {
			t.Fatal(err)
		}
		if want, err = twin.CandidatesInto(q, want); err != nil {
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

// TestFamilyInterned: indexes built with one (dim, bits, tables, seed)
// share one family while any of them lives, and any other key draws its
// own. Once none lives, the family is collected, its entry goes, and
// the next index with that key draws the very same planes again.
func TestFamilyInterned(t *testing.T) {
	const dim, bits, tables, seed = 24, 9, 3, 77
	build := func(dim, bits, tables int, seed int64) *HyperplaneIndex {
		x, err := NewHyperplane(dim, bits, tables, seed)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	a, b := build(dim, bits, tables, seed), build(dim, bits, tables, seed)
	if a.fam != b.fam {
		t.Fatal("two indexes with one key drew two families")
	}
	for _, other := range []*HyperplaneIndex{build(dim, bits, tables, seed+1), build(dim, bits, tables+1, seed), build(dim+1, bits, tables, seed)} {
		if other.fam == a.fam {
			t.Fatalf("index %dx%dx%d shares the %dx%dx%d family", other.dim, other.bits, other.tables, dim, bits, tables)
		}
	}
	planes := slices.Clone(a.fam.planes)
	dead := weak.Make(a.fam)
	runtime.KeepAlive(a)
	runtime.KeepAlive(b)
	runtime.GC()
	if dead.Value() != nil {
		t.Fatal("a family outlived every index holding it")
	}
	key := familyKey{dim, bits, tables, seed}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		families.Lock()
		_, ok := families.m[key]
		families.Unlock()
		if !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("a collected family's entry stayed in the table")
		}
	}
	c := build(dim, bits, tables, seed)
	if !slices.Equal(c.fam.planes, planes) {
		t.Fatal("the family drawn after a collection has other planes")
	}
}

// TestFamilyInternedConcurrent builds indexes of three keys from eight
// goroutines at once, collecting in between, the way a pool's sessions
// and eval's parallel workers build theirs. Run under -race: every index
// must hash with its key's planes, and two indexes built with one key
// while both live must share a family.
func TestFamilyInternedConcurrent(t *testing.T) {
	keys := []familyKey{{16, 8, 2, 41}, {16, 8, 2, 42}, {24, 6, 3, 41}}
	want := make([][]float64, len(keys))
	for i, k := range keys {
		want[i] = newHashFamily(k.dim, k.bits, k.tables, k.seed).planes
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				ki := (g + i) % len(keys)
				k := keys[ki]
				a, err := NewHyperplane(k.dim, k.bits, k.tables, k.seed)
				if err != nil {
					t.Error(err)
					return
				}
				b, err := NewHyperplane(k.dim, k.bits, k.tables, k.seed)
				if err != nil {
					t.Error(err)
					return
				}
				if a.fam != b.fam {
					t.Error("two live indexes with one key hold two families")
					return
				}
				if !slices.Equal(a.fam.planes, want[ki]) {
					t.Errorf("key %v: planes differ from a fresh draw", k)
					return
				}
				if i%10 == 0 {
					runtime.GC()
				}
			}
		}(g)
	}
	wg.Wait()
}
