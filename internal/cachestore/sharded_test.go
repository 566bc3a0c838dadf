package cachestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
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

// newTestSharded builds a sharded store whose shards share index seed
// 99 — the configuration under which sharded lookups must reproduce
// unsharded results exactly.
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

func TestShardedValidation(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	bad := []ShardedConfig{
		{Config: Config{Capacity: 0}, Dim: shardTestDim, Shards: 4},
		{Config: Config{Capacity: 64}, Dim: shardTestDim, Shards: 0},
		{Config: Config{Capacity: 64}, Dim: shardTestDim, Shards: 300},
		{Config: Config{Capacity: 64}, Dim: 0, Shards: 4},
	}
	for i, cfg := range bad {
		if _, err := NewSharded(cfg, func(int) (lsh.Index, error) {
			return lsh.NewHyperplane(shardTestDim, 8, 4, 99)
		}, clock); err == nil {
			t.Errorf("config %d: want error", i)
		}
	}
	if _, err := NewSharded(ShardedConfig{
		Config: Config{Capacity: 64}, Dim: shardTestDim, Shards: 4,
	}, nil, clock); err == nil {
		t.Error("nil index constructor: want error")
	}
}

// TestShardedDifferential: on identical inserts with identical index
// seeds, sharded NearestInto must return exactly what a single-shard
// store returns — same labels, same distances, same order.
func TestShardedDifferential(t *testing.T) {
	vecs := shardTestVecs(t, 300, 21)
	queries := shardTestVecs(t, 60, 22)
	for _, shards := range []int{2, 4, 7} {
		clock := simclock.NewVirtual(time.Unix(0, 0))
		single := newTestSharded(t, 1, 1024, clock)
		sharded := newTestSharded(t, shards, 1024, clock)
		for i, v := range vecs {
			label := fmt.Sprintf("class-%d", i%17)
			if _, err := single.Insert(v, label, 0.9, "dnn", time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if _, err := sharded.Insert(v, label, 0.9, "dnn", time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		for qi, q := range queries {
			a, err := single.Nearest(q, 4)
			if err != nil {
				t.Fatal(err)
			}
			b, err := sharded.Nearest(q, 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("shards=%d query %d: %d vs %d results", shards, qi, len(a), len(b))
			}
			for i := range a {
				if a[i].Distance != b[i].Distance {
					t.Fatalf("shards=%d query %d rank %d: distance %v vs %v",
						shards, qi, i, a[i].Distance, b[i].Distance)
				}
				la, _ := single.Label(a[i].ID)
				lb, _ := sharded.Label(b[i].ID)
				if la != lb {
					t.Fatalf("shards=%d query %d rank %d: label %q vs %q",
						shards, qi, i, la, lb)
				}
			}
		}
	}
}

// TestShardedIDsRoundTrip: global IDs decode back to live entries and
// Get rewrites the entry ID to the global form.
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

// TestShardedPerShardEviction: filling past total capacity evicts
// within shards rather than growing without bound.
func TestShardedPerShardEviction(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	s := newTestSharded(t, 4, 64, clock)
	for i, v := range shardTestVecs(t, 200, 41) {
		if _, err := s.Insert(v, fmt.Sprintf("c%d", i), 0.8, "dnn", time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	// Per-shard capacity is 16; routing is not perfectly even, so the
	// total sits at or below 64 with every shard individually bounded.
	if got := s.Len(); got > 64 {
		t.Fatalf("Len = %d, want <= 64", got)
	}
	if s.Evictions() == 0 {
		t.Fatal("no evictions after 200 inserts into capacity 64")
	}
	for _, st := range s.ShardStats() {
		if st.Entries > 16 {
			t.Fatalf("shard %d holds %d entries, per-shard cap 16", st.Shard, st.Entries)
		}
	}
}

// TestShardedSnapshotRoundTrip: export from a sharded store, import
// into both sharded and unsharded stores, entries survive intact.
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

	// Sharded → sharded (different shard count).
	dst := newTestSharded(t, 8, 256, clock)
	n, err := dst.Import(bytes.NewReader(exported))
	if err != nil {
		t.Fatal(err)
	}
	if n != src.Len() || dst.Len() != src.Len() {
		t.Fatalf("imported %d, dst len %d, want %d", n, dst.Len(), src.Len())
	}

	// Sharded → plain Store.
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
	for name, st := range map[string]Interface{"sharded8": dst, "plain": plain} {
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

// TestShardedConcurrentStress hammers one sharded store from many
// goroutines mixing Insert, NearestInto, Remove (forced eviction
// pressure), and Export. Run under -race this is the data-race proof
// for the serving path.
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
						s.ShardStats()
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if got := s.Len(); got > 128 {
		t.Fatalf("Len = %d, want <= capacity 128", got)
	}
	var lookups, inserts int64
	for _, st := range s.ShardStats() {
		lookups += st.Lookups
		inserts += st.Inserts
	}
	if lookups == 0 || inserts == 0 {
		t.Fatalf("counters not advancing: lookups=%d inserts=%d", lookups, inserts)
	}
}

// TestSerializedStoreMatchesInner: the single-mutex baseline is a
// transparent wrapper.
func TestSerializedStoreMatchesInner(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	idx, err := lsh.NewHyperplane(shardTestDim, 8, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := New(Config{Capacity: 64}, idx, clock)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSerialized(inner)
	vecs := shardTestVecs(t, 20, 71)
	for i, v := range vecs {
		if _, err := s.Insert(v, fmt.Sprintf("c%d", i), 0.8, "dnn", time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 20 || inner.Len() != 20 {
		t.Fatalf("len %d/%d, want 20", s.Len(), inner.Len())
	}
	ns, err := s.Nearest(vecs[3], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 1 {
		t.Fatalf("got %d neighbors", len(ns))
	}
	if label, ok := s.Label(ns[0].ID); !ok || label != "c3" {
		t.Fatalf("label %q ok=%v, want c3", label, ok)
	}
	var buf bytes.Buffer
	if err := s.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Import(bytes.NewReader(buf.Bytes())); err != nil || n != 20 {
		t.Fatalf("import n=%d err=%v", n, err)
	}
}

// TestShardedStoreKeepsOneHyperplaneMatrix: NewSharded makes identically
// seeded shard indexes share their hash family, so a node pays for one
// hyperplane matrix, not one per shard — and goes on paying for one per
// shard when the factory seeds them differently. (Which index points at
// which matrix is lsh's TestShardsShareOneFamily; here the heap is the
// witness.) The matrix is sized at 1 MiB so that it dwarfs everything
// else a fresh store holds.
func TestShardedStoreKeepsOneHyperplaneMatrix(t *testing.T) {
	const (
		dim, bits, tables = 128, 64, 16
		matrix            = dim * bits * tables * 8
		shards            = 8
	)
	settled := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	grown := func(seedOf func(shard int) int64) int64 {
		before := settled()
		s, err := NewSharded(ShardedConfig{
			Config: Config{Capacity: 64, Policy: LRU}, Dim: dim, Shards: shards, RouterSeed: 1,
		}, func(i int) (lsh.Index, error) { return lsh.NewHyperplane(dim, bits, tables, seedOf(i)) },
			simclock.NewVirtual(time.Unix(0, 0)))
		if err != nil {
			t.Fatal(err)
		}
		after := settled()
		runtime.KeepAlive(s)
		return int64(after) - int64(before)
	}
	if got := grown(func(int) int64 { return 7 }); got > 2*matrix {
		t.Errorf("same-seed shards hold %d KiB, want about one %d KiB matrix", got>>10, matrix>>10)
	}
	if got := grown(func(i int) int64 { return int64(i + 1) }); got < (shards-1)*matrix {
		t.Errorf("differently seeded shards hold %d KiB, want %d matrices of %d KiB", got>>10, shards, matrix>>10)
	}
}
