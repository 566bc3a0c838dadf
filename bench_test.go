package approxcache_test

import (
	"math/rand"
	"testing"

	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/p2p"
)

// Micro-benchmarks of the stages no package's gated HotPath benchmark
// covers. The experiments themselves run through cmd/approxbench.

func benchVectors(n, dim int, seed int64) []feature.Vector {
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

// BenchmarkLSHInsert measures index insertion.
func BenchmarkLSHInsert(b *testing.B) {
	vecs := benchVectors(1024, 80, 2)
	idx, err := lsh.NewHyperplane(80, 12, 4, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := idx.Insert(lsh.ID(i), vecs[i%len(vecs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecRoundTrip measures peer-message encode+decode.
func BenchmarkCodecRoundTrip(b *testing.B) {
	vec := benchVectors(1, 80, 7)[0]
	msg := p2p.Query{Vec: vec, K: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := p2p.Encode(msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p2p.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
