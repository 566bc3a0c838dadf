package cachestore

import (
	"testing"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/simclock"
)

// newTestStore builds a store over a 2-d exact index, on a virtual
// clock at the epoch.
func newTestStore(t *testing.T, cfg Config) (*Store, *simclock.Virtual) {
	t.Helper()
	idx, err := lsh.NewExact(2)
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

// get is id's entry as every read assembles one — bookkeeping from the
// table, a fresh copy of the vector — and whether it is live.
func (s *Store) get(id lsh.ID) (Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r := s.recLocked(id)
	if r == nil {
		return Entry{}, false
	}
	return r.entry(s.vecOf(r, nil)), true
}

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
	if _, ok := s.get(id2); ok {
		t.Fatal("LRU should have evicted id2")
	}
	if _, ok := s.get(id1); !ok {
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
	if _, ok := s.get(id2); ok {
		t.Fatal("LFU should evict least-frequently-used id2")
	}
	if _, ok := s.get(id1); !ok {
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
	if _, ok := s.get(cheap); ok {
		t.Fatal("cost-aware should evict the cheap entry")
	}
	if _, ok := s.get(expensive); !ok {
		t.Fatal("expensive entry evicted")
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
