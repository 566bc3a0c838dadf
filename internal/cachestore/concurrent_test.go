package cachestore

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/simclock"
)

func randVec4(rng *rand.Rand) feature.Vector {
	v := make(feature.Vector, 4)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// SerializedStore funnels every operation — reads included — through
// one exclusive mutex in front of a Store: the correctness oracle the
// concurrent store is checked against. It wraps only the methods the
// differential compares.
type SerializedStore struct {
	mu    sync.Mutex
	inner *Store
}

// NewSerialized wraps inner behind a single exclusive mutex.
func NewSerialized(inner *Store) *SerializedStore {
	return &SerializedStore{inner: inner}
}

func (s *SerializedStore) Insert(vec feature.Vector, label string, confidence float64, source string, savedCost time.Duration) (lsh.ID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Insert(vec, label, confidence, source, savedCost)
}

func (s *SerializedStore) Touch(id lsh.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inner.Touch(id)
}

func (s *SerializedStore) Label(id lsh.ID) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Label(id)
}

func (s *SerializedStore) Nearest(q feature.Vector, k int) ([]lsh.Neighbor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Nearest(q, k)
}

func (s *SerializedStore) NearestInto(q feature.Vector, k int, dst []lsh.Neighbor) ([]lsh.Neighbor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.NearestInto(q, k, dst)
}

func (s *SerializedStore) Remove(id lsh.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inner.Remove(id)
}

func (s *SerializedStore) Refute(id lsh.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Refute(id)
}

func (s *SerializedStore) Parole(id lsh.ID, ok bool) ParoleOutcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Parole(id, ok)
}

func (s *SerializedStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Len()
}

func (s *SerializedStore) Evictions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Evictions()
}

func (s *SerializedStore) Expiries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Expiries()
}

func (s *SerializedStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Stats()
}

func (s *SerializedStore) Export(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Export(w)
}

func (s *SerializedStore) Import(r io.Reader) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Import(r)
}

// TestSerializedStoreMatchesInner: the oracle is a transparent wrapper.
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

// TestStoreDifferentialWithSerialized replays one interleaved workload —
// inserts, removes, lookups, touches, TTL expiry, quarantine and
// parole — against a plain store and against the same store wrapped in
// SerializedStore (the fully serialized correctness oracle), and
// requires element-identical observable state at every step.
func TestStoreDifferentialWithSerialized(t *testing.T) {
	const dim = 4
	cfg := Config{
		Capacity:            48,
		Policy:              LRU,
		TTL:                 90 * time.Second,
		QuarantineThreshold: 2,
	}
	mkStore := func() *Store {
		idx, err := lsh.NewHyperplane(dim, 6, 3, 42)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(cfg, idx, simclock.NewVirtual(time.Unix(0, 0)))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	freeInner := mkStore()
	free := Interface(freeInner)
	oracle := NewSerialized(mkStore())

	// Both stores share one virtual clock by construction: the two
	// inner stores were created at the same instant and we advance
	// both in lockstep below.
	freeClk := freeInner.clock.(*simclock.Virtual)
	oracleClk := oracle.inner.clock.(*simclock.Virtual)

	rng := rand.New(rand.NewSource(17))
	ids := make([]lsh.ID, 0, 512)
	var dstA, dstB []lsh.Neighbor
	for op := 0; op < 2000; op++ {
		switch r := rng.Float64(); {
		case r < 0.35:
			v := randVec4(rng)
			label := string(rune('a' + rng.Intn(8)))
			idA, errA := free.Insert(v, label, 0.9, "dnn", time.Millisecond)
			idB, errB := oracle.Insert(v, label, 0.9, "dnn", time.Millisecond)
			if (errA == nil) != (errB == nil) || idA != idB {
				t.Fatalf("op %d: insert diverged: (%v,%v) vs (%v,%v)", op, idA, errA, idB, errB)
			}
			ids = append(ids, idA)
		case r < 0.45 && len(ids) > 0:
			id := ids[rng.Intn(len(ids))]
			free.Remove(id)
			oracle.Remove(id)
		case r < 0.75:
			q := randVec4(rng)
			k := 1 + rng.Intn(4)
			nsA, errA := free.NearestInto(q, k, dstA)
			nsB, errB := oracle.NearestInto(q, k, dstB)
			if (errA == nil) != (errB == nil) || len(nsA) != len(nsB) {
				t.Fatalf("op %d: nearest diverged: (%d,%v) vs (%d,%v)",
					op, len(nsA), errA, len(nsB), errB)
			}
			for i := range nsA {
				if nsA[i] != nsB[i] {
					t.Fatalf("op %d: neighbor %d: %+v vs %+v", op, i, nsA[i], nsB[i])
				}
			}
			for _, n := range nsA {
				free.Touch(n.ID)
				oracle.Touch(n.ID)
			}
			dstA, dstB = nsA[:0], nsB[:0]
		case r < 0.85 && len(ids) > 0:
			id := ids[rng.Intn(len(ids))]
			qA := free.Refute(id)
			qB := oracle.Refute(id)
			if qA != qB {
				t.Fatalf("op %d: refute(%d) diverged: %v vs %v", op, id, qA, qB)
			}
			if qA && rng.Float64() < 0.5 {
				verdict := rng.Float64() < 0.5
				pA := free.Parole(id, verdict)
				pB := oracle.Parole(id, verdict)
				if pA != pB {
					t.Fatalf("op %d: parole(%d) diverged: %v vs %v", op, id, pA, pB)
				}
			}
		case r < 0.95 && len(ids) > 0:
			id := ids[rng.Intn(len(ids))]
			lA, okA := free.Label(id)
			lB, okB := oracle.Label(id)
			if lA != lB || okA != okB {
				t.Fatalf("op %d: label(%d) diverged: (%q,%v) vs (%q,%v)",
					op, id, lA, okA, lB, okB)
			}
		default:
			step := time.Duration(rng.Intn(40)) * time.Second
			freeClk.Advance(step)
			oracleClk.Advance(step)
		}
		if free.Len() != oracle.Len() {
			t.Fatalf("op %d: len %d vs %d", op, free.Len(), oracle.Len())
		}
	}
	if free.Evictions() != oracle.Evictions() {
		t.Fatalf("evictions %d vs %d", free.Evictions(), oracle.Evictions())
	}
	if free.Expiries() != oracle.Expiries() {
		t.Fatalf("expiries %d vs %d", free.Expiries(), oracle.Expiries())
	}
	sA, sB := free.Stats(), oracle.Stats()
	if sA.Entries != sB.Entries || sA.Evictions != sB.Evictions ||
		sA.Expiries != sB.Expiries || sA.TotalHits != sB.TotalHits {
		t.Fatalf("final stats diverged: %+v vs %+v", sA, sB)
	}
}

// TestReadersDuringImportRace floods a warm store with readers while
// Import bulk-inserts a snapshot on top of it. Run under -race this
// checks the reader pipeline against the heaviest write burst the store
// supports.
func TestReadersDuringImportRace(t *testing.T) {
	const dim = 4
	mk := func(seed int64, capacity int) *Store {
		idx, err := lsh.NewHyperplane(dim, 6, 3, 42)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Capacity: capacity}, idx, simclock.NewVirtual(time.Unix(0, 0)))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < capacity/2; i++ {
			if _, err := s.Insert(randVec4(rng), "x", 0.9, "dnn", time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	donor := mk(5, 64)
	var buf bytes.Buffer
	if err := donor.Export(&buf); err != nil {
		t.Fatal(err)
	}
	target := mk(6, 256)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			dst := make([]lsh.Neighbor, 0, 8)
			for !stop.Load() {
				ns, err := target.NearestInto(randVec4(rng), 3, dst)
				if err != nil {
					t.Error(err)
					return
				}
				for _, n := range ns {
					target.Label(n.ID)
				}
				dst = ns[:0]
				target.Len()
				runtime.Gosched()
			}
		}(r)
	}
	if _, err := target.Import(bytes.NewReader(buf.Bytes())); err != nil {
		t.Error(err)
	}
	stop.Store(true)
	wg.Wait()
}

// TestReadersDuringQuarantineRace drives lookups concurrent with
// refute/quarantine/parole churn — the write path that removes slots
// from the candidate index while readers are mid-pipeline. Under -race
// this exercises slot recycling through the store.
func TestReadersDuringQuarantineRace(t *testing.T) {
	const dim = 4
	idx, err := lsh.NewHyperplane(dim, 6, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Capacity: 128, QuarantineThreshold: 1}, idx,
		simclock.NewVirtual(time.Unix(0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	ids := make([]lsh.ID, 0, 64)
	for i := 0; i < 64; i++ {
		id, err := s.Insert(randVec4(rng), "x", 0.9, "dnn", time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(int64(200 + r)))
			dst := make([]lsh.Neighbor, 0, 8)
			for !stop.Load() {
				ns, err := s.NearestInto(randVec4(rrng), 3, dst)
				if err != nil {
					t.Error(err)
					return
				}
				dst = ns[:0]
				runtime.Gosched()
			}
		}(r)
	}
	wrng := rand.New(rand.NewSource(300))
	for i := 0; i < 200; i++ {
		id := ids[wrng.Intn(len(ids))]
		if s.Refute(id) {
			s.Parole(id, wrng.Float64() < 0.7)
		}
	}
	stop.Store(true)
	wg.Wait()
}
