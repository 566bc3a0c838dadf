package cachestore

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/simclock"
)

func newTestStore(t *testing.T, cfg Config) (*Store, *simclock.Virtual) {
	t.Helper()
	return newTestStoreDim(t, cfg, 2)
}

// newTestStoreDim builds a store over an exact index of the given
// dimensionality, on a virtual clock at the epoch.
func newTestStoreDim(t *testing.T, cfg Config, dim int) (*Store, *simclock.Virtual) {
	t.Helper()
	idx, err := lsh.NewExact(dim)
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.NewVirtual(time.Unix(0, 0))
	s, err := New(cfg, idx, clk)
	if err != nil {
		t.Fatal(err)
	}
	return s, clk
}

func vec(x, y float64) feature.Vector { return feature.Vector{x, y} }

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", Config{Capacity: 4}, true},
		{"valid policy", Config{Capacity: 4, Policy: CostAware}, true},
		{"zero capacity", Config{}, false},
		{"negative capacity", Config{Capacity: -1}, false},
		{"bad policy", Config{Capacity: 4, Policy: Policy(42)}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cfg.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestNewValidation(t *testing.T) {
	idx, err := lsh.NewExact(2)
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.NewVirtual(time.Unix(0, 0))
	if _, err := New(Config{Capacity: 0}, idx, clk); err == nil {
		t.Fatal("bad config accepted")
	}
	if _, err := New(Config{Capacity: 1}, nil, clk); err == nil {
		t.Fatal("nil index accepted")
	}
	if _, err := New(Config{Capacity: 1}, idx, nil); err == nil {
		t.Fatal("nil clock accepted")
	}
}

func TestInsertValidation(t *testing.T) {
	s, _ := newTestStore(t, Config{Capacity: 4})
	if _, err := s.Insert(nil, "cat", 1, "dnn", time.Millisecond); err == nil {
		t.Fatal("empty vector accepted")
	}
	if _, err := s.Insert(vec(1, 0), "", 1, "dnn", time.Millisecond); err == nil {
		t.Fatal("empty label accepted")
	}
}

func TestInsertGetTouch(t *testing.T) {
	s, clk := newTestStore(t, Config{Capacity: 4})
	id, err := s.Insert(vec(1, 0), "cat", 0.9, "dnn", 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s.Get(id)
	if !ok {
		t.Fatal("entry missing")
	}
	if e.Label != "cat" || e.Confidence != 0.9 || e.Source != "dnn" || e.Hits != 0 {
		t.Fatalf("entry = %+v", e)
	}
	clk.Advance(time.Second)
	s.Touch(id)
	e, _ = s.Get(id)
	if e.Hits != 1 || !e.LastAccess.After(e.InsertedAt) {
		t.Fatalf("touch not recorded: %+v", e)
	}
	if _, ok := s.Get(999); ok {
		t.Fatal("absent id found")
	}
	s.Touch(999) // no-op
}

func TestGetReturnsSnapshot(t *testing.T) {
	s, _ := newTestStore(t, Config{Capacity: 4})
	id, err := s.Insert(vec(1, 0), "cat", 0.9, "dnn", time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := s.Get(id)
	e.Label = "dog"
	e.Vec[0] = 99
	e2, _ := s.Get(id)
	if e2.Label != "cat" || e2.Vec[0] != 1 {
		t.Fatal("Get exposes internal state")
	}
}

func TestLabelCallback(t *testing.T) {
	s, _ := newTestStore(t, Config{Capacity: 4})
	id, err := s.Insert(vec(1, 0), "cat", 0.9, "dnn", time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	l, ok := s.Label(id)
	if !ok || l != "cat" {
		t.Fatalf("Label = %q, %v", l, ok)
	}
	if _, ok := s.Label(12345); ok {
		t.Fatal("absent label resolved")
	}
}

func TestLRUEviction(t *testing.T) {
	s, clk := newTestStore(t, Config{Capacity: 2, Policy: LRU})
	id1, _ := s.Insert(vec(1, 0), "a", 1, "dnn", time.Millisecond)
	clk.Advance(time.Second)
	id2, _ := s.Insert(vec(0, 1), "b", 1, "dnn", time.Millisecond)
	clk.Advance(time.Second)
	s.Touch(id1) // id1 now more recent than id2
	clk.Advance(time.Second)
	if _, err := s.Insert(vec(1, 1), "c", 1, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(id2); ok {
		t.Fatal("LRU should have evicted id2")
	}
	if _, ok := s.Get(id1); !ok {
		t.Fatal("recently used id1 evicted")
	}
	if s.Evictions() != 1 {
		t.Fatalf("evictions = %d", s.Evictions())
	}
}

func TestLFUEviction(t *testing.T) {
	s, clk := newTestStore(t, Config{Capacity: 2, Policy: LFU})
	id1, _ := s.Insert(vec(1, 0), "a", 1, "dnn", time.Millisecond)
	id2, _ := s.Insert(vec(0, 1), "b", 1, "dnn", time.Millisecond)
	for i := 0; i < 3; i++ {
		s.Touch(id1)
		clk.Advance(time.Millisecond)
	}
	s.Touch(id2) // id2 used once, id1 three times; id2 is more recent
	clk.Advance(time.Millisecond)
	if _, err := s.Insert(vec(1, 1), "c", 1, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(id2); ok {
		t.Fatal("LFU should evict least-frequently-used id2")
	}
	if _, ok := s.Get(id1); !ok {
		t.Fatal("frequently used id1 evicted")
	}
}

func TestCostAwareEviction(t *testing.T) {
	s, clk := newTestStore(t, Config{Capacity: 2, Policy: CostAware})
	// Cheap entry is recent, expensive entry is old: cost-aware must
	// evict the cheap one (LRU would evict the expensive one).
	expensive, _ := s.Insert(vec(1, 0), "a", 1, "dnn", 500*time.Millisecond)
	clk.Advance(time.Second)
	cheap, _ := s.Insert(vec(0, 1), "b", 1, "dnn", 1*time.Millisecond)
	clk.Advance(time.Second)
	if _, err := s.Insert(vec(1, 1), "c", 1, "dnn", 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(cheap); ok {
		t.Fatal("cost-aware should evict the cheap entry")
	}
	if _, ok := s.Get(expensive); !ok {
		t.Fatal("expensive entry evicted")
	}
}

func TestTTLExpiry(t *testing.T) {
	s, clk := newTestStore(t, Config{Capacity: 4, TTL: time.Second})
	id, _ := s.Insert(vec(1, 0), "a", 1, "dnn", time.Millisecond)
	if _, ok := s.Get(id); !ok {
		t.Fatal("fresh entry missing")
	}
	clk.Advance(2 * time.Second)
	if _, ok := s.Get(id); ok {
		t.Fatal("expired entry still visible")
	}
	// Nearest must also not return expired entries.
	ns, err := s.Nearest(vec(1, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 0 {
		t.Fatalf("expired entry returned by Nearest: %+v", ns)
	}
	if s.Expiries() == 0 {
		t.Fatal("expiry not counted")
	}
}

func TestNearestOrdersByDistance(t *testing.T) {
	s, _ := newTestStore(t, Config{Capacity: 8})
	far, _ := s.Insert(vec(5, 5), "far", 1, "dnn", time.Millisecond)
	near, _ := s.Insert(vec(1, 0), "near", 1, "dnn", time.Millisecond)
	ns, err := s.Nearest(vec(1, 0.1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 2 || ns[0].ID != near || ns[1].ID != far {
		t.Fatalf("nearest = %+v", ns)
	}
}

func TestRemove(t *testing.T) {
	s, _ := newTestStore(t, Config{Capacity: 4})
	id, _ := s.Insert(vec(1, 0), "a", 1, "dnn", time.Millisecond)
	s.Remove(id)
	if _, ok := s.Get(id); ok {
		t.Fatal("removed entry visible")
	}
	s.Remove(id) // double remove is a no-op
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestSnapshot(t *testing.T) {
	s, _ := newTestStore(t, Config{Capacity: 4})
	if _, err := s.Insert(vec(1, 0), "a", 1, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(vec(0, 1), "b", 1, "peer", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	snap[0].Label = "mutated"
	for _, e := range s.Snapshot() {
		if e.Label == "mutated" {
			t.Fatal("snapshot aliases store")
		}
	}
}

func TestStats(t *testing.T) {
	s, clk := newTestStore(t, Config{Capacity: 2, TTL: 10 * time.Second})
	st := s.Stats()
	if st.Entries != 0 || st.TotalHits != 0 || len(st.BySource) != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
	id1, _ := s.Insert(vec(1, 0), "a", 1, "dnn", 100*time.Millisecond)
	if _, err := s.Insert(vec(0, 1), "b", 1, "peer", 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	s.Touch(id1)
	s.Touch(id1)
	st = s.Stats()
	if st.Entries != 2 || st.BySource["dnn"] != 1 || st.BySource["peer"] != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.TotalHits != 2 || st.SavedTotal != 200*time.Millisecond {
		t.Fatalf("hit accounting = %+v", st)
	}
	// Eviction and expiry counts flow through.
	if _, err := s.Insert(vec(1, 1), "c", 1, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d", st.Evictions)
	}
	clk.Advance(time.Minute)
	if st := s.Stats(); st.Entries != 0 || st.Expiries == 0 {
		t.Fatalf("post-expiry stats = %+v", st)
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "lru" || LFU.String() != "lfu" || CostAware.String() != "cost-aware" {
		t.Fatal("policy names wrong")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Fatalf("unknown = %q", Policy(9).String())
	}
}

// Property: the store never exceeds capacity, no matter the insert/use
// pattern, and evictions+len accounting stays consistent.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		idx, err := lsh.NewExact(2)
		if err != nil {
			return false
		}
		clk := simclock.NewVirtual(time.Unix(0, 0))
		s, err := New(Config{Capacity: 3, Policy: CostAware}, idx, clk)
		if err != nil {
			return false
		}
		inserted := 0
		for i, op := range ops {
			clk.Advance(time.Millisecond)
			switch op % 3 {
			case 0, 1:
				_, err := s.Insert(vec(float64(i), float64(op)), fmt.Sprintf("l%d", op%5), 1, "dnn",
					time.Duration(op)*time.Millisecond)
				if err != nil {
					return false
				}
				inserted++
			case 2:
				s.Touch(lsh.ID(op))
			}
			if s.Len() > 3 {
				return false
			}
		}
		return s.Len()+s.Evictions() == inserted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, _ := newTestStore(t, Config{Capacity: 16})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			id, err := s.Insert(vec(float64(i%7), 1), "x", 1, "dnn", time.Millisecond)
			if err != nil {
				t.Error(err)
				return
			}
			s.Touch(id)
		}
	}()
	for i := 0; i < 300; i++ {
		if _, err := s.Nearest(vec(1, 1), 3); err != nil {
			t.Fatal(err)
		}
		s.Snapshot()
	}
	<-done
}
