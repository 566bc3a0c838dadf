package cachestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/simclock"
)

// newTunedSharded builds a store through the deprecated NewSharded shim
// over the full tuned pipeline (multi-probe, sketch prefilter), the
// index core.Engine's default IndexTuning asks for.
func newTunedSharded(tb testing.TB, shards, capacity int, clock simclock.Clock) *ShardedStore {
	tb.Helper()
	tun := lsh.DefaultTuning()
	tun.Probes = 4
	s, err := NewSharded(ShardedConfig{
		Config: Config{Capacity: capacity},
		Dim:    shardTestDim,
		Shards: shards,
	}, func(int) (lsh.Index, error) {
		return lsh.NewHyperplaneTuned(shardTestDim, 8, 2, 99, tun)
	}, clock)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestTunedSnapshotRoundTrip pins the recompute-on-import contract:
// sketches are never persisted — they are deterministic functions of
// (seed, vector), so a store rebuilt from a snapshot must answer every
// lookup bit-for-bit like the original. The subtests build through the
// shim at every shard count it once accepted, which must not matter.
func TestTunedSnapshotRoundTrip(t *testing.T) {
	// Clustered, near-duplicate population: the regime where the sketch
	// prefilter actually participates in results, so a recompute
	// divergence would change answers.
	rng := rand.New(rand.NewSource(31))
	centers := make([]feature.Vector, 12)
	for c := range centers {
		centers[c] = make(feature.Vector, shardTestDim)
		for d := range centers[c] {
			centers[c][d] = rng.Float64()
		}
	}
	const n = 240
	vecs := make([]feature.Vector, n)
	for i := range vecs {
		v := make(feature.Vector, shardTestDim)
		for d := range v {
			v[d] = centers[i%len(centers)][d] + rng.NormFloat64()*0.03
		}
		vecs[i] = v
	}
	queries := make([]feature.Vector, 60)
	for i := range queries {
		src := vecs[rng.Intn(n)]
		q := make(feature.Vector, shardTestDim)
		for d := range q {
			q[d] = src[d] + rng.NormFloat64()*0.01
		}
		queries[i] = q
	}

	for _, shards := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			clock := simclock.NewVirtual(time.Unix(0, 0))
			orig := newTunedSharded(t, shards, n, clock)
			for i, v := range vecs {
				if _, err := orig.Insert(v, fmt.Sprintf("label-%d", i), 0.9, "dnn", time.Millisecond); err != nil {
					t.Fatal(err)
				}
			}
			var snap bytes.Buffer
			if err := orig.Export(&snap); err != nil {
				t.Fatal(err)
			}

			restored := newTunedSharded(t, shards, n, clock)
			if got, err := restored.Import(bytes.NewReader(snap.Bytes())); err != nil || got != n {
				t.Fatalf("import: %d entries, err %v; want %d, nil", got, err, n)
			}

			dstA := make([]lsh.Neighbor, 0, 4)
			dstB := make([]lsh.Neighbor, 0, 4)
			for qi, q := range queries {
				a, err := orig.NearestInto(q, 4, dstA)
				if err != nil {
					t.Fatal(err)
				}
				b, err := restored.NearestInto(q, 4, dstB)
				if err != nil {
					t.Fatal(err)
				}
				if len(a) != len(b) {
					t.Fatalf("query %d: %d vs %d neighbors", qi, len(a), len(b))
				}
				for i := range a {
					la, oka := orig.Label(a[i].ID)
					lb, okb := restored.Label(b[i].ID)
					if !oka || !okb || la != lb || a[i].Distance != b[i].Distance {
						t.Fatalf("query %d neighbor %d: (%q, %v, live=%v) vs (%q, %v, live=%v)",
							qi, i, la, a[i].Distance, oka, lb, b[i].Distance, okb)
					}
				}
				dstA, dstB = a[:0], b[:0]
			}
		})
	}
}
