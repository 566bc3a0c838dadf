package cachestore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/simclock"
)

func TestExportImportRoundTrip(t *testing.T) {
	src, _ := newTestStore(t, Config{Capacity: 8})
	if _, err := src.Insert(vec(1, 0), "cat", 0.9, "dnn", 120*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Insert(vec(0, 1), "dog", 0.8, "peer", 80*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}

	dst, _ := newTestStore(t, Config{Capacity: 8})
	n, err := dst.Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || dst.Len() != 2 {
		t.Fatalf("imported %d, len %d", n, dst.Len())
	}
	ns, err := dst.Nearest(vec(1, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := dst.get(ns[0].ID)
	if !ok || e.Label != "cat" || e.Confidence != 0.9 || e.SavedCost != 120*time.Millisecond {
		t.Fatalf("entry = %+v", e)
	}
}

func TestExportEmptyStore(t *testing.T) {
	src, _ := newTestStore(t, Config{Capacity: 4})
	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}
	dst, _ := newTestStore(t, Config{Capacity: 4})
	n, err := dst.Import(&buf)
	if err != nil || n != 0 {
		t.Fatalf("empty import = %d, %v", n, err)
	}
}

func TestImportRespectsCapacity(t *testing.T) {
	src, _ := newTestStore(t, Config{Capacity: 16})
	for i := 0; i < 10; i++ {
		if _, err := src.Insert(vec(float64(i), 1), "x", 0.9, "dnn", time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}
	dst, _ := newTestStore(t, Config{Capacity: 3})
	n, err := dst.Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("imported %d", n)
	}
	if dst.Len() > 3 {
		t.Fatalf("capacity violated: %d", dst.Len())
	}
	if dst.Evictions() == 0 {
		t.Fatal("over-capacity import did not evict")
	}
}

func TestImportErrors(t *testing.T) {
	dst, _ := newTestStore(t, Config{Capacity: 4})
	if _, err := dst.Import(strings.NewReader("{")); err == nil {
		t.Fatal("bad json accepted")
	}
	if _, err := dst.Import(strings.NewReader(framed(`{"version":99,"entries":[]}`))); err == nil {
		t.Fatal("wrong version accepted")
	}
	bad := framed(`{"version":2,"entries":[{"vec":[],"label":"x"}]}`)
	if _, err := dst.Import(strings.NewReader(bad)); err == nil {
		t.Fatal("empty vector entry accepted")
	}
	bad = framed(`{"version":2,"entries":[{"vec":[1,2],"label":""}]}`)
	if _, err := dst.Import(strings.NewReader(bad)); err == nil {
		t.Fatal("empty label entry accepted")
	}
}

func TestImportCorruptSnapshotLeavesStoreEmpty(t *testing.T) {
	// One good entry followed by one bad: all-or-nothing validation
	// must reject the whole file and insert nothing.
	dst, _ := newTestStore(t, Config{Capacity: 8})
	payload := `{"version":2,"entries":[
		{"vec":[1,0],"label":"ok","confidence":1,"source":"dnn","savedCostMicros":1000},
		{"vec":[],"label":"bad"}
	]}`
	n, err := dst.Import(strings.NewReader(framed(payload)))
	if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("err = %v, want ErrCorruptSnapshot", err)
	}
	if n != 0 || dst.Len() != 0 {
		t.Fatalf("corrupt snapshot inserted %d entries (store len %d), want 0", n, dst.Len())
	}
}

func TestImportTruncatedSnapshot(t *testing.T) {
	// A snapshot cut off mid-write (crash, full disk, partial
	// download) must leave the store empty and identify itself as
	// corrupt, whatever prefix length survived.
	src, _ := newTestStore(t, Config{Capacity: 8})
	if _, err := src.Insert(vec(1, 0), "door", 0.9, "dnn", 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Insert(vec(0, 1), "sign", 0.8, "dnn", 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.String()
	for _, cut := range []int{1, len(full) / 4, len(full) / 2, len(full) - 2} {
		dst, _ := newTestStore(t, Config{Capacity: 8})
		n, err := dst.Import(strings.NewReader(full[:cut]))
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("cut at %d: err = %v, want ErrCorruptSnapshot", cut, err)
		}
		if n != 0 || dst.Len() != 0 {
			t.Fatalf("cut at %d: inserted %d entries (store len %d), want 0", cut, n, dst.Len())
		}
	}
	// Sanity: the untruncated snapshot still loads.
	dst, _ := newTestStore(t, Config{Capacity: 8})
	if n, err := dst.Import(strings.NewReader(full)); err != nil || n != 2 {
		t.Fatalf("full snapshot: n=%d err=%v, want 2, nil", n, err)
	}
}

// TestTunedSnapshotRoundTrip pins the recompute-on-import contract:
// signatures are never persisted — they are deterministic functions of
// (seed, vector) — so a store rebuilt from a snapshot must answer every
// lookup bit-for-bit like the original. The subtests build through the
// deprecated NewSharded shim at every shard count it once accepted,
// which must not matter. (The name is older than the single plain
// index; the contract is that index's.)
func TestTunedSnapshotRoundTrip(t *testing.T) {
	// Clustered, near-duplicate population: buckets hold several
	// neighbors, so a recompute divergence would change answers.
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
			newStore := func() *ShardedStore {
				s, err := NewSharded(ShardedConfig{
					Config: Config{Capacity: n},
					Dim:    shardTestDim,
					Shards: shards,
				}, func(int) (lsh.Index, error) {
					return lsh.NewHyperplane(shardTestDim, 8, 2, 99)
				}, clock)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			orig := newStore()
			for i, v := range vecs {
				if _, err := orig.Insert(v, fmt.Sprintf("label-%d", i), 0.9, "dnn", time.Millisecond); err != nil {
					t.Fatal(err)
				}
			}
			var snap bytes.Buffer
			if err := orig.Export(&snap); err != nil {
				t.Fatal(err)
			}
			restored := newStore()
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
