package lsh

// Hot-path micro-benchmarks, all reporting allocs/op. `make bench-hotpath`
// runs these and cmd/benchgate pins their allocation budgets, so a
// change that reintroduces per-query allocation fails `make check`.
// Index shape matches the E1 pipeline: 80-dim vectors, 12 bits × 4
// tables, ~512 warm entries, k=4.

import (
	"math"
	"math/rand"
	"testing"

	"approxcache/internal/feature"
	"approxcache/internal/vision"
)

func benchVecs(b *testing.B, n, dim int, seed int64) []feature.Vector {
	b.Helper()
	r := rand.New(rand.NewSource(seed))
	out := make([]feature.Vector, n)
	for i := range out {
		v := make(feature.Vector, dim)
		for d := range v {
			v[d] = r.NormFloat64()
		}
		v.Normalize()
		out[i] = v
	}
	return out
}

func warmIndex(b *testing.B, vecs []feature.Vector) *HyperplaneIndex {
	b.Helper()
	idx, err := NewHyperplane(len(vecs[0]), 12, 4, 5)
	if err != nil {
		b.Fatal(err)
	}
	for i, v := range vecs {
		if err := idx.Insert(ID(i), v); err != nil {
			b.Fatal(err)
		}
	}
	return idx
}

// BenchmarkHotPathSignature measures one table signature: a strided
// dot-product sweep over the flat hyperplane matrix.
func BenchmarkHotPathSignature(b *testing.B) {
	vecs := benchVecs(b, 1, 80, 2)
	idx := warmIndex(b, vecs)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= idx.fam.signature(i%idx.tables, vecs[0])
	}
	_ = sink
}

// BenchmarkHotPathCandidates measures LSH candidate gathering with the
// epoch-stamped dedup, appending into a reused caller buffer. Budget: 0
// allocs/op.
func BenchmarkHotPathCandidates(b *testing.B) {
	vecs := benchVecs(b, 512, 80, 4)
	idx := warmIndex(b, vecs)
	ids := make([]ID, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := idx.CandidatesInto(vecs[i%len(vecs)], ids)
		if err != nil {
			b.Fatal(err)
		}
		ids = out[:0]
	}
}

// BenchmarkHotPathTopK measures bounded top-k selection over a fixed
// candidate stream, for both the insertion (small k) and heap (large k)
// strategies.
func BenchmarkHotPathTopK(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	cands := make([]Neighbor, 512)
	for i := range cands {
		cands[i] = Neighbor{ID: ID(i), Distance: r.Float64()}
	}
	for _, k := range []int{4, 64} {
		name := "k=4"
		if k > insertionSelectK {
			name = "k=64(heap)"
		}
		b.Run(name, func(b *testing.B) {
			buf := make([]Neighbor, 0, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var sel kSelector
				sel.reset(k, buf)
				for _, c := range cands {
					sel.add(c)
				}
				if got := sel.finish(); len(got) != k {
					b.Fatalf("selected %d", len(got))
				}
			}
		})
	}
}

// BenchmarkHotPathNearest is the headline lookup: warm 512-entry index,
// k=4, results written into a reused buffer. Budget: 0 allocs/op.
func BenchmarkHotPathNearest(b *testing.B) {
	vecs := benchVecs(b, 512, 80, 4)
	idx := warmIndex(b, vecs)
	dst := make([]Neighbor, 0, 4)
	if _, err := idx.NearestInto(vecs[0], 4, dst); err != nil {
		b.Fatal(err) // warm the scratch pool before timing
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ns, err := idx.NearestInto(vecs[i%len(vecs)], 4, dst)
		if err != nil {
			b.Fatal(err)
		}
		dst = ns[:0]
	}
}

// BenchmarkHotPathExactNearest is the linear-scan baseline under the
// same shape: dense arena sweep with top-k selection. Budget: 0
// allocs/op.
func BenchmarkHotPathExactNearest(b *testing.B) {
	vecs := benchVecs(b, 512, 80, 6)
	idx, err := NewExact(80)
	if err != nil {
		b.Fatal(err)
	}
	for i, v := range vecs {
		if err := idx.Insert(ID(i), v); err != nil {
			b.Fatal(err)
		}
	}
	dst := make([]Neighbor, 0, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ns, err := idx.NearestInto(vecs[i%len(vecs)], 4, dst)
		if err != nil {
			b.Fatal(err)
		}
		dst = ns[:0]
	}
}

// descriptorVecs renders n perturbed 48×48 frames of a 128-class
// vocabulary and describes them with the default extractor: the vectors
// real traffic indexes. They are all-positive and correlated, so — unlike
// benchVecs' zero-mean Gaussians, which barely collide — a large share
// of the index lands in every query's candidate set.
func descriptorVecs(b *testing.B, n int, seed int64) []feature.Vector {
	b.Helper()
	classes, err := vision.NewClassSet(128, 48, 48, seed)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed + 1))
	ext := feature.DefaultExtractor()
	out := make([]feature.Vector, n)
	for i := range out {
		im, err := classes.Render(i%classes.NumClasses(), vision.DefaultPerturbation(), r)
		if err != nil {
			b.Fatal(err)
		}
		if out[i], err = ext.Extract(im); err != nil {
			b.Fatal(err)
		}
	}
	return out
}

// benchNearestDescriptors is the photo-lookup shape: 244 indexed
// descriptors, queried with fresh renders of the same vocabulary at
// k=4 within radius. It reports the mean candidate-set size.
func benchNearestDescriptors(b *testing.B, radius float64) {
	vecs := descriptorVecs(b, 244+256, 9)
	idx := warmIndex(b, vecs[:244])
	queries := vecs[244:]
	var ids []ID
	cands := 0
	for _, q := range queries {
		var err error
		if ids, err = idx.CandidatesInto(q, ids[:0]); err != nil {
			b.Fatal(err)
		}
		cands += len(ids)
	}
	dst := make([]Neighbor, 0, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ns, err := idx.NearestWithinInto(queries[i%len(queries)], 4, radius, dst)
		if err != nil {
			b.Fatal(err)
		}
		dst = ns[:0]
	}
	b.ReportMetric(float64(cands)/float64(len(queries)), "candidates/op")
}

// BenchmarkHotPathNearestDescriptors is the unbounded lookup real
// traffic pays for. Budget: 0 allocs/op.
func BenchmarkHotPathNearestDescriptors(b *testing.B) {
	benchNearestDescriptors(b, math.Inf(1))
}

// BenchmarkHotPathNearestWithinDescriptors is the same lookup bounded by
// the vote radius, as the engine issues it. Budget: 0 allocs/op.
func BenchmarkHotPathNearestWithinDescriptors(b *testing.B) {
	benchNearestDescriptors(b, DefaultVoteConfig().MaxDistance)
}
