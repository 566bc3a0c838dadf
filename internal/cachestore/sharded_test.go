package cachestore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/simclock"
)

const shardTestDim = 32

func shardTestVecs(tb testing.TB, n int, seed int64) []feature.Vector {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	out := make([]feature.Vector, n)
	for i := range out {
		v := make(feature.Vector, shardTestDim)
		for d := range v {
			v[d] = r.NormFloat64()
		}
		v.Normalize()
		out[i] = v
	}
	return out
}

// TestShardedValidation: the shim rejects what New rejects and passes
// the index constructor's error through.
func TestShardedValidation(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	newIndex := func(int) (lsh.Index, error) { return lsh.NewHyperplane(shardTestDim, 8, 4, 99) }
	if _, err := NewSharded(ShardedConfig{Config: Config{Capacity: 0}, Shards: 4}, newIndex, clock); err == nil {
		t.Error("capacity 0: want error")
	}
	if _, err := NewSharded(ShardedConfig{Config: Config{Capacity: 64}, Shards: 4}, newIndex, nil); err == nil {
		t.Error("nil clock: want error")
	}
	boom := errors.New("boom")
	if _, err := NewSharded(ShardedConfig{Config: Config{Capacity: 64}, Shards: 4},
		func(int) (lsh.Index, error) { return nil, boom }, clock); !errors.Is(err, boom) {
		t.Errorf("index constructor error: got %v, want %v", err, boom)
	}
}

// TestNewShardedCompatIsOneStore: whatever shard count it is given,
// NewSharded builds its index once and is exactly New over that index —
// same IDs, neighbours, quarantine verdicts, evictions and Export bytes
// over a seeded sequence that overfills the store — and reports no
// shards.
func TestNewShardedCompatIsOneStore(t *testing.T) {
	const capacity = 64
	cfg := Config{Capacity: capacity, QuarantineThreshold: 1}
	vecs := shardTestVecs(t, 200, 21)
	queries := shardTestVecs(t, 40, 22)
	newIndex := func() (lsh.Index, error) { return lsh.NewHyperplane(shardTestDim, 8, 4, 99) }
	for _, shards := range []int{2, 4, 7, 8} {
		clock := simclock.NewVirtual(time.Unix(0, 0))
		calls := 0
		compat, err := NewSharded(ShardedConfig{Config: cfg, Dim: shardTestDim, Shards: shards, RouterSeed: 7},
			func(int) (lsh.Index, error) { calls++; return newIndex() }, clock)
		if err != nil {
			t.Fatal(err)
		}
		if calls != 1 {
			t.Fatalf("shards=%d: index constructor called %d times, want 1", shards, calls)
		}
		if compat.ShardStats() != nil {
			t.Fatalf("shards=%d: ShardStats = %v, want nil", shards, compat.ShardStats())
		}
		idx, err := newIndex()
		if err != nil {
			t.Fatal(err)
		}
		plain, err := New(cfg, idx, clock)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(shards)))
		for i, v := range vecs {
			label := fmt.Sprintf("class-%d", i%17)
			a, errA := compat.Insert(v, label, 0.9, "dnn", time.Millisecond)
			b, errB := plain.Insert(v, label, 0.9, "dnn", time.Millisecond)
			if errA != nil || errB != nil || a != b {
				t.Fatalf("shards=%d insert %d: id %d (%v), New gives %d (%v)", shards, i, a, errA, b, errB)
			}
			switch rng.Intn(4) {
			case 0:
				q := queries[rng.Intn(len(queries))]
				na, errA := compat.Nearest(q, 4)
				nb, errB := plain.Nearest(q, 4)
				if errA != nil || errB != nil || !slices.Equal(na, nb) {
					t.Fatalf("shards=%d insert %d: neighbours %v (%v), New gives %v (%v)", shards, i, na, errA, nb, errB)
				}
			case 1:
				if qa, qb := compat.Refute(a), plain.Refute(b); qa != qb {
					t.Fatalf("shards=%d insert %d: refute quarantined %v, New %v", shards, i, qa, qb)
				}
			}
		}
		// One store holds the whole capacity, not a per-shard share of it.
		if compat.Len() != capacity || plain.Len() != capacity || compat.Evictions() != plain.Evictions() {
			t.Fatalf("shards=%d: len %d, evictions %d; New: len %d, evictions %d",
				shards, compat.Len(), compat.Evictions(), plain.Len(), plain.Evictions())
		}
		var ea, eb bytes.Buffer
		if err := compat.Export(&ea); err != nil {
			t.Fatal(err)
		}
		if err := plain.Export(&eb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ea.Bytes(), eb.Bytes()) {
			t.Fatalf("shards=%d: Export differs from New's", shards)
		}
	}
}
