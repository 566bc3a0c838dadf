package cachestore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
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

// newTestSharded builds a store through the deprecated NewSharded shim
// over index seed 99. The shard count must not matter.
func newTestSharded(tb testing.TB, shards, capacity int, clock simclock.Clock) *ShardedStore {
	tb.Helper()
	s, err := NewSharded(ShardedConfig{
		Config: Config{Capacity: capacity},
		Dim:    shardTestDim,
		Shards: shards,
	}, func(int) (lsh.Index, error) {
		return lsh.NewHyperplane(shardTestDim, 8, 4, 99)
	}, clock)
	if err != nil {
		tb.Fatal(err)
	}
	return s
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

// TestShardedIDsRoundTrip: the IDs the shim hands out are unique and
// resolve to their entries.
func TestShardedIDsRoundTrip(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	s := newTestSharded(t, 4, 256, clock)
	vecs := shardTestVecs(t, 50, 31)
	ids := make([]lsh.ID, len(vecs))
	for i, v := range vecs {
		id, err := s.Insert(v, fmt.Sprintf("c%d", i), 0.8, "dnn", time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	seen := make(map[lsh.ID]bool)
	for i, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate global ID %d", id)
		}
		seen[id] = true
		e, ok := s.Get(id)
		if !ok {
			t.Fatalf("entry %d not live", i)
		}
		if e.ID != id {
			t.Fatalf("entry %d: Get ID %d, want global %d", i, e.ID, id)
		}
		if want := fmt.Sprintf("c%d", i); e.Label != want {
			t.Fatalf("entry %d: label %q, want %q", i, e.Label, want)
		}
		s.Touch(id)
	}
	if got := s.Stats().TotalHits; got != len(ids) {
		t.Fatalf("TotalHits = %d, want %d", got, len(ids))
	}
	s.Remove(ids[0])
	if _, ok := s.Get(ids[0]); ok {
		t.Fatal("removed entry still live")
	}
	if s.Len() != len(ids)-1 {
		t.Fatalf("Len = %d, want %d", s.Len(), len(ids)-1)
	}
}

// TestShardedSnapshotRoundTrip: a snapshot exported from the shim's
// store imports into the shim's and into New's, entries intact.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	src := newTestSharded(t, 4, 256, clock)
	vecs := shardTestVecs(t, 80, 51)
	for i, v := range vecs {
		if _, err := src.Insert(v, fmt.Sprintf("c%d", i%11), 0.8, "dnn", time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}
	exported := buf.Bytes()

	// Shim → shim (another shard count).
	dst := newTestSharded(t, 8, 256, clock)
	n, err := dst.Import(bytes.NewReader(exported))
	if err != nil {
		t.Fatal(err)
	}
	if n != src.Len() || dst.Len() != src.Len() {
		t.Fatalf("imported %d, dst len %d, want %d", n, dst.Len(), src.Len())
	}

	// Shim → plain Store.
	idx, err := lsh.NewHyperplane(shardTestDim, 8, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(Config{Capacity: 256}, idx, clock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Import(bytes.NewReader(exported)); err != nil {
		t.Fatal(err)
	}
	if plain.Len() != src.Len() {
		t.Fatalf("plain len %d, want %d", plain.Len(), src.Len())
	}

	// Label multisets must match across all three.
	labels := func(entries []Entry) []string {
		out := make([]string, len(entries))
		for i, e := range entries {
			out[i] = e.Label
		}
		sort.Strings(out)
		return out
	}
	want := labels(src.Snapshot())
	for name, st := range map[string]Interface{"shim": dst, "plain": plain} {
		got := labels(st.Snapshot())
		if len(got) != len(want) {
			t.Fatalf("%s: %d labels, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: label[%d] = %q, want %q", name, i, got[i], want[i])
			}
		}
	}

	// Corrupt snapshot leaves the store untouched.
	bad := append([]byte(nil), exported...)
	bad[len(bad)-2] ^= 0xff
	fresh := newTestSharded(t, 4, 256, clock)
	if _, err := fresh.Import(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt import succeeded")
	}
	if fresh.Len() != 0 {
		t.Fatalf("corrupt import inserted %d entries", fresh.Len())
	}
}

// TestShardedConcurrentStress hammers the store a pool's sessions share
// from many goroutines mixing Insert, NearestInto, Remove (forced
// eviction pressure), and Export. Run under -race this is the data-race
// proof for the serving path.
func TestShardedConcurrentStress(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	s := newTestSharded(t, 4, 128, clock)
	vecs := shardTestVecs(t, 256, 61)
	const workers = 8
	const opsPerWorker = 300

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]lsh.Neighbor, 0, 4)
			for op := 0; op < opsPerWorker; op++ {
				v := vecs[(w*opsPerWorker+op)%len(vecs)]
				switch op % 4 {
				case 0, 1:
					ns, err := s.NearestInto(v, 4, dst)
					if err != nil {
						t.Error(err)
						return
					}
					for _, n := range ns {
						s.Touch(n.ID)
						s.Label(n.ID)
					}
					dst = ns[:0]
				case 2:
					id, err := s.Insert(v, fmt.Sprintf("w%d-%d", w, op), 0.8, "dnn", time.Millisecond)
					if err != nil {
						t.Error(err)
						return
					}
					if op%8 == 2 {
						s.Remove(id)
					}
				case 3:
					if op%30 == 3 {
						var buf bytes.Buffer
						if err := s.Export(&buf); err != nil {
							t.Error(err)
							return
						}
					} else {
						s.Stats()
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if got := s.Len(); got > 128 {
		t.Fatalf("Len = %d, want <= capacity 128", got)
	}
	if s.Evictions() == 0 {
		t.Fatal("no evictions: the stress never filled the store")
	}
}
