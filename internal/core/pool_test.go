package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/dnn"
	"approxcache/internal/lsh"
	"approxcache/internal/metrics"
	"approxcache/internal/simclock"
	"approxcache/internal/vision"
)

// newPoolFixture builds an n-session pool over one store and a
// micro-batched classifier — the full serving-scale stack.
func newPoolFixture(t *testing.T, n int) (*Pool, *cachestore.Store, *vision.ClassSet) {
	t.Helper()
	classes, err := vision.NewClassSet(6, 48, 48, 77)
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewVirtual(time.Unix(0, 0))
	classifier, err := dnn.NewClassifier(perfectProfile(), classes, 1)
	if err != nil {
		t.Fatal(err)
	}
	batcher, err := dnn.NewBatcher(dnn.BatcherConfig{MaxBatch: 4, MaxWait: time.Millisecond}, classifier)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(batcher.Close)
	cfg := DefaultConfig()
	idx, err := lsh.NewHyperplane(cfg.Extractor.Dim(), 12, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	store, err := cachestore.New(cachestore.Config{Capacity: 256}, idx, clock)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(n, cfg, Deps{Clock: clock, Classifier: batcher, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	return pool, store, classes
}

func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(0, DefaultConfig(), Deps{}); err == nil {
		t.Fatal("want error for pool size 0")
	}
	// Typed-nil store must be caught at construction, not at first use.
	classes, err := vision.NewClassSet(4, 48, 48, 7)
	if err != nil {
		t.Fatal(err)
	}
	classifier, err := dnn.NewClassifier(perfectProfile(), classes, 1)
	if err != nil {
		t.Fatal(err)
	}
	var nilStore *cachestore.Store
	if _, err := NewPool(2, DefaultConfig(), Deps{
		Clock:      simclock.NewVirtual(time.Unix(0, 0)),
		Classifier: classifier,
		Store:      nilStore,
	}); err == nil {
		t.Fatal("want error for typed-nil store in approx mode")
	}
}

// TestPoolSharesInfrastructure: sessions share stats, watchdog, and
// store but keep private gate state.
func TestPoolSharesInfrastructure(t *testing.T) {
	pool, store, _ := newPoolFixture(t, 4)
	if len(pool.engines) != 4 || len(pool.Sessions()) != 4 {
		t.Fatalf("size %d/%d, want 4", len(pool.engines), len(pool.Sessions()))
	}
	first := pool.Session(0)
	for i := 1; i < len(pool.engines); i++ {
		e := pool.Session(i)
		if e.stats != first.stats {
			t.Fatalf("session %d has private stats", i)
		}
		if e.wd != first.wd {
			t.Fatalf("session %d has private watchdog", i)
		}
		if e.deps.Store != cachestore.Interface(store) {
			t.Fatalf("session %d has private store", i)
		}
		if e.detector == first.detector || e.keyframes == first.keyframes {
			t.Fatalf("session %d shares gate state", i)
		}
	}
	if pool.Stats() != first.stats {
		t.Fatal("pool stats is not the shared scoreboard")
	}
}

// TestPoolConcurrentStreams drives every session from its own
// goroutine (run under -race). Streams share the store: once stream 0
// has cached a class, other streams may serve it from SourceLocal
// without ever running the DNN on it.
func TestPoolConcurrentStreams(t *testing.T) {
	const sessions = 4
	pool, store, classes := newPoolFixture(t, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s + 1)))
			eng := pool.Session(s)
			for i := 0; i < 30; i++ {
				im, err := classes.Render(i%classes.NumClasses(), vision.DefaultPerturbation(), rng)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := eng.ProcessWithTruth(im, stationaryWindow(time.Duration(i)*time.Second), dnn.LabelOf(i%classes.NumClasses())); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	stats := pool.Stats()
	if got := stats.Frames(); got != sessions*30 {
		t.Fatalf("frames = %d, want %d", got, sessions*30)
	}
	counts := stats.CountBySource()
	if counts[metrics.SourceDNN] == 0 {
		t.Fatal("no DNN frames at all")
	}
	if counts[metrics.SourceDNN] == sessions*30 {
		t.Fatal("every frame ran the DNN: no cross-stream reuse")
	}
	if store.Len() == 0 {
		t.Fatal("shared store is empty")
	}
}

// TestPoolDegradedServeIsolation: last-result copies returned to one
// stream are unaffected by another stream's subsequent frames (the S2
// shared-slice race, fixed by storing Result by value).
func TestPoolDegradedServeIsolation(t *testing.T) {
	pool, _, classes := newPoolFixture(t, 2)
	rng := rand.New(rand.NewSource(9))
	im0, err := classes.Render(0, vision.DefaultPerturbation(), rng)
	if err != nil {
		t.Fatal(err)
	}
	eng := pool.Session(0)
	res, err := eng.Process(im0, stationaryWindow(0))
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := eng.lastResult()
	if !ok || snap.Label != res.Label {
		t.Fatalf("last result = %+v ok=%v, want %q", snap, ok, res.Label)
	}
	// Process a different class; the earlier copy must not change.
	im1, err := classes.Render(1, vision.HardPerturbation(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Process(im1, nil); err != nil {
		t.Fatal(err)
	}
	if snap.Label != res.Label {
		t.Fatalf("earlier last-result copy mutated to %q", snap.Label)
	}
}
