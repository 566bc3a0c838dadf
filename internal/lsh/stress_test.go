package lsh

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"approxcache/internal/feature"
)

// stressIndex hammers idx with concurrent inserts, removes, and lookups.
// Run under -race (make check does) this validates the RWMutex split,
// the pooled query scratch, and arena slot reuse.
func stressIndex(t *testing.T, idx Index, dim int) {
	t.Helper()
	const (
		writers = 4
		readers = 4
		ops     = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < ops; i++ {
				id := ID(w*ops + rng.Intn(ops))
				if rng.Float64() < 0.7 {
					if err := idx.Insert(id, randVec(rng, dim)); err != nil {
						t.Error(err)
						return
					}
				} else {
					idx.Remove(id)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			dst := make([]Neighbor, 0, 8)
			ii, hasInto := idx.(IntoIndex)
			for i := 0; i < ops; i++ {
				q := randVec(rng, dim)
				k := 1 + rng.Intn(8)
				var ns []Neighbor
				var err error
				if hasInto && i%2 == 0 {
					ns, err = ii.NearestInto(q, k, dst)
					if err == nil {
						dst = ns[:0]
					}
				} else {
					ns, err = idx.Nearest(q, k)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if len(ns) > k {
					t.Errorf("got %d neighbors for k=%d", len(ns), k)
					return
				}
				for j := 1; j < len(ns); j++ {
					if neighborWorse(ns[j-1], ns[j]) {
						t.Errorf("neighbors out of order: %+v", ns)
						return
					}
				}
				idx.Len()
			}
		}(r)
	}
	wg.Wait()
}

func TestHyperplaneConcurrentStress(t *testing.T) {
	idx, err := NewHyperplane(8, 6, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	stressIndex(t, idx, 8)
}

func TestExactConcurrentStress(t *testing.T) {
	idx, err := NewExact(8)
	if err != nil {
		t.Fatal(err)
	}
	stressIndex(t, idx, 8)
}

// churnVec is the vector the churn test inserts under id at version ver:
// a pure function of both, so a reader can recompute it without sharing
// memory with the writer.
func churnVec(id ID, ver uint32, dim int) feature.Vector {
	return randVec(rand.New(rand.NewSource(int64(id)<<32|int64(ver))), dim)
}

// TestChurnDistancesMatchLastInsert races writers that insert, replace
// and remove against readers, and requires every returned neighbour's
// Distance to equal the distance recomputed from the vector last inserted
// under its ID. Each id is owned by one writer, which raises started[id]
// before an Insert and done[id] after it, so the versions a lookup can
// legally have seen are [done before the lookup, started after it]. A
// slot read while stale, half-written or recycled for another id matches
// no version in that window. Len and Stats run beside the writers too.
func TestChurnDistancesMatchLastInsert(t *testing.T) {
	// classic is the plain single-probe index.
	t.Run("classic", func(t *testing.T) {
		const (
			dim     = 8
			writers = 2
			perW    = 32
			ids     = writers * perW
			readers = 4
			ops     = 400
		)
		idx, err := NewHyperplane(dim, 6, 3, 42)
		if err != nil {
			t.Fatal(err)
		}
		var started, done [ids]atomic.Uint32
		for id := 0; id < ids; id++ {
			started[id].Store(1)
			if err := idx.Insert(ID(id), churnVec(ID(id), 1, dim)); err != nil {
				t.Fatal(err)
			}
			done[id].Store(1)
		}
		var writing sync.WaitGroup
		var stop atomic.Bool
		for w := 0; w < writers; w++ {
			writing.Add(1)
			go func(w int) {
				defer writing.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < ops; i++ {
					id := w*perW + rng.Intn(perW)
					if rng.Float64() < 0.3 {
						idx.Remove(ID(id)) // the next insert takes a recycled slot
					}
					ver := started[id].Add(1)
					if err := idx.Insert(ID(id), churnVec(ID(id), ver, dim)); err != nil {
						t.Error(err)
						return
					}
					done[id].Store(ver)
				}
			}(w)
		}
		var reading sync.WaitGroup
		for r := 0; r < readers; r++ {
			reading.Add(1)
			go func(r int) {
				defer reading.Done()
				rng := rand.New(rand.NewSource(int64(100 + r)))
				dst := make([]Neighbor, 0, 8)
				var lo [ids]uint32
				for !stop.Load() {
					q := randVec(rng, dim)
					for id := range lo {
						lo[id] = done[id].Load()
					}
					ns, err := idx.NearestInto(q, 4, dst)
					if err != nil {
						t.Error(err)
						return
					}
					for _, n := range ns {
						hi := started[n.ID].Load()
						ok := false
						for ver := lo[n.ID]; ver <= hi && !ok; ver++ {
							ok = n.Distance == feature.MustEuclidean(q, churnVec(n.ID, ver, dim))
						}
						if !ok {
							t.Errorf("id %d: distance %v matches no version in [%d,%d]",
								n.ID, n.Distance, lo[n.ID], hi)
							return
						}
					}
					dst = ns[:0]
					if n := idx.Len(); n > ids {
						t.Errorf("Len = %d, want at most %d", n, ids)
						return
					}
					if st := idx.Stats(); st.Items > ids || st.MaxBucket > ids {
						t.Errorf("Stats = %+v, want at most %d items", st, ids)
						return
					}
				}
			}(r)
		}
		writing.Wait()
		stop.Store(true)
		reading.Wait()
		if got := idx.Len(); got != ids {
			t.Errorf("Len after churn = %d, want %d", got, ids)
		}
	})
}

// TestBucketShrinkAfterChurn verifies that removals both clear the
// swapped-from tail slot and hand grossly over-capacity buckets back to
// the allocator instead of pinning their high-water backing arrays.
func TestBucketShrinkAfterChurn(t *testing.T) {
	// One bit and one table funnels everything into at most two buckets,
	// so they grow large before the churn.
	idx, err := NewHyperplane(4, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	const n = 1024
	for i := 0; i < n; i++ {
		if err := idx.Insert(ID(i), randVec(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n-8; i++ {
		idx.Remove(ID(i))
	}
	arenaLen := func() int {
		idx.mu.RLock()
		defer idx.mu.RUnlock()
		for t0, table := range idx.buckets {
			for sig, bucket := range table {
				if len(bucket) == 0 {
					t.Errorf("table %d sig %x: empty bucket retained", t0, sig)
				}
				if cap(bucket) >= bucketShrinkMin && cap(bucket) >= 4*len(bucket) {
					t.Errorf("table %d sig %x: bucket len %d cap %d not shrunk",
						t0, sig, len(bucket), cap(bucket))
				}
			}
		}
		return len(idx.arena)
	}()
	// Freed slots must be recycled: re-inserting the same population
	// cannot grow the arena beyond its high-water mark.
	for i := 0; i < n-8; i++ {
		if err := idx.Insert(ID(i), randVec(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	if len(idx.arena) > arenaLen {
		t.Errorf("arena grew past high-water mark: %d floats, was %d", len(idx.arena), arenaLen)
	}
}
