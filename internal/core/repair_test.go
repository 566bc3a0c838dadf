package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/dnn"
	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/metrics"
	"approxcache/internal/simclock"
	"approxcache/internal/vision"
)

// poisonCache inserts a wrong-label entry exactly where the prototype's
// feature vector sits, so the local cache would serve it.
func poisonCache(t *testing.T, f *fixture, cfg Config, class int, wrongLabel string) {
	t.Helper()
	proto, err := f.classes.Prototype(class)
	if err != nil {
		t.Fatal(err)
	}
	vec, err := cfg.Extractor.Extract(proto)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.store.Insert(vec, wrongLabel, 0.99, "dnn", 120*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

func TestRepairPurgesContradictedEntries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableIMUGate = true
	cfg.DisableVideoGate = true
	cfg.MaxReuseStreak = 1 // revalidate aggressively
	f := newFixture(t, cfg, nil)
	poisonCache(t, f, cfg, 0, "poison")
	proto, err := f.classes.Prototype(0)
	if err != nil {
		t.Fatal(err)
	}
	// First frame: served by the poisoned local entry.
	res, err := f.engine.ProcessWithTruth(proto, nil, dnn.LabelOf(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != metrics.SourceLocal || res.Label != "poison" {
		t.Fatalf("poisoned entry not served: %+v", res)
	}
	// Second frame: streak bound forces revalidation; the DNN (perfect
	// in this fixture) contradicts the poison, which must be purged.
	res, err = f.engine.ProcessWithTruth(proto, nil, dnn.LabelOf(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != metrics.SourceDNN || res.Label != dnn.LabelOf(0) {
		t.Fatalf("revalidation did not run: %+v", res)
	}
	if got := f.engine.Stats().Repairs(); got != 1 {
		t.Fatalf("repairs = %d, want 1", got)
	}
	// Third frame (streak reset, next reuse attempt): the poison is
	// gone, so the vote now returns the correct label.
	res, err = f.engine.ProcessWithTruth(proto, nil, dnn.LabelOf(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Label != dnn.LabelOf(0) {
		t.Fatalf("poison survived repair: %+v", res)
	}
}

func TestRepairDoesNotPurgeAgreeingEntries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableIMUGate = true
	cfg.DisableVideoGate = true
	cfg.MaxReuseStreak = 1
	f := newFixture(t, cfg, nil)
	// Correct-label entry at the prototype's position.
	poisonCache(t, f, cfg, 2, dnn.LabelOf(2))
	proto, err := f.classes.Prototype(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.engine.ProcessWithTruth(proto, nil, dnn.LabelOf(2)); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.engine.Stats().Repairs(); got != 0 {
		t.Fatalf("agreeing entry purged: repairs = %d", got)
	}
}

// TestRepairReuseMatchesRescan pins repair's reuse rule at the function
// itself: on twin caches, repairing from the frame's own lookup — taken
// at the vote K and any radius from half the vote radius up, truncated
// by the store or not — removes exactly what repairing from a fresh scan
// removes.
func TestRepairReuseMatchesRescan(t *testing.T) {
	cfg := DefaultConfig()
	dim := cfg.Extractor.Dim()
	rng := rand.New(rand.NewSource(8))
	// Tight clusters of mixed labels around a few centers.
	centers := make([]feature.Vector, 6)
	for c := range centers {
		centers[c] = make(feature.Vector, dim)
		for d := range centers[c] {
			centers[c][d] = rng.Float64()
		}
	}
	near := func(c int, sigma float64) feature.Vector {
		v := centers[c].Clone()
		for d := range v {
			v[d] += rng.NormFloat64() * sigma
		}
		return v
	}
	newTwin := func(hide bool) (*Engine, *cachestore.Store) {
		clock := simclock.NewVirtual(time.Unix(0, 0))
		idx, err := lsh.NewHyperplane(dim, 12, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := cachestore.New(cachestore.Config{Capacity: 512}, idx, clock)
		if err != nil {
			t.Fatal(err)
		}
		classes, err := vision.NewClassSet(4, 48, 48, 1)
		if err != nil {
			t.Fatal(err)
		}
		clf, err := dnn.NewClassifier(perfectProfile(), classes, 1)
		if err != nil {
			t.Fatal(err)
		}
		var store cachestore.Interface = raw
		if hide {
			store = hideWithin{raw}
		}
		eng, err := New(cfg, Deps{Clock: clock, Classifier: clf, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		return eng, raw
	}
	removedTotal := 0
	for trial := 0; trial < 60; trial++ {
		hide := trial%3 == 2
		reuse, reuseStore := newTwin(hide)
		rescan, rescanStore := newTwin(false)
		for i := 0; i < 40; i++ {
			v := near(rng.Intn(len(centers)), 0.004+0.006*rng.Float64())
			label := []string{"a", "b", "c"}[rng.Intn(3)]
			for _, s := range []*cachestore.Store{reuseStore, rescanStore} {
				if _, err := s.Insert(v, label, 0.9, "dnn", time.Millisecond); err != nil {
					t.Fatal(err)
				}
			}
		}
		for q := 0; q < 8; q++ {
			vec := near(rng.Intn(len(centers)), 0.005)
			radius := cfg.Vote.MaxDistance * (0.5 + 0.5*rng.Float64())
			ns, err := cachestore.NearestWithinInto(reuse.deps.Store, vec, cfg.Vote.K, radius, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := reuse.repairNear(vec, "a", cfg.Vote.MaxDistance/2, ns, true)
			want, _ := rescan.repairNear(vec, "a", cfg.Vote.MaxDistance/2, nil, false)
			if got != want {
				t.Fatalf("trial %d query %d: reuse removed %d, rescan %d", trial, q, got, want)
			}
			removedTotal += got
		}
		a, b := reuseStore.Snapshot(), rescanStore.Snapshot()
		sort.Slice(a, func(i, j int) bool { return a[i].ID < a[j].ID })
		sort.Slice(b, func(i, j int) bool { return b[i].ID < b[j].ID })
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: caches diverged (%d vs %d entries)", trial, len(a), len(b))
		}
	}
	if removedTotal == 0 {
		t.Fatal("nothing was ever repaired")
	}
}
