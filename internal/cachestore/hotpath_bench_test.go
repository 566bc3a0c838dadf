package cachestore

import (
	"testing"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/simclock"
)

// benchStore is a store over the default index shape (80-d descriptors,
// 12 bits × 4 tables) filled to capacity, plus the vectors that filled
// it.
func benchStore(b *testing.B, capacity int) (*Store, []feature.Vector, []lsh.ID) {
	b.Helper()
	const dim = 80
	idx, err := lsh.NewHyperplane(dim, 12, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Capacity: capacity, Policy: CostAware}, idx, simclock.NewVirtual(time.Unix(0, 0)))
	if err != nil {
		b.Fatal(err)
	}
	vecs := randomDescriptors(capacity, dim, 1)
	ids := make([]lsh.ID, capacity)
	for i := range vecs {
		if ids[i], err = s.Insert(vecs[i], "label", 0.9, "dnn", time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
	return s, vecs, ids
}

var benchLabel string

// BenchmarkHotPathStoreLabel is the kNN vote's per-neighbor resolver: a
// table read that copies nothing.
func BenchmarkHotPathStoreLabel(b *testing.B) {
	s, _, ids := benchStore(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchLabel, _ = s.Label(ids[i%len(ids)])
	}
}

// BenchmarkHotPathStoreInsertEvict is a miss on a full cache: pick the
// victim, drop it from table and index, insert the new entry. The store
// itself allocates nothing per insert; what remains is the index's
// bucket growth.
func BenchmarkHotPathStoreInsertEvict(b *testing.B) {
	s, vecs, _ := benchStore(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Insert(vecs[i%len(vecs)], "label", 0.9, "dnn", time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}
