package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"approxcache/internal/core"
	"approxcache/internal/dnn"
	"approxcache/internal/vision"
)

// profile is the model every workload fronts: the paper's "standard
// mobile neural network".
var profile = dnn.MobileNetV2

// memoClassifier serves the seeded simulated DNN's answers from a
// table built in set-up. The simulator's own feature math (a 288-dim
// descriptor against every class prototype, 50-230 us per call) would
// otherwise be 20-49% of a run's wall time and drown the cache path
// the benchmark exists to measure; label noise, simulated latency and
// energy are exactly the live classifier's.
type memoClassifier struct {
	table map[*vision.Image]dnn.Inference
}

var _ core.Classifier = (*memoClassifier)(nil)

func (m *memoClassifier) Profile() dnn.Profile { return profile }

func (m *memoClassifier) Infer(im *vision.Image) (dnn.Inference, error) {
	inf, ok := m.table[im]
	if !ok {
		return dnn.Inference{}, fmt.Errorf("memo classifier: frame was not in the generated inputs")
	}
	return inf, nil
}

// buildMemo runs the live classifier once over every frame of sc, in
// the order a pass will process them (round-robin across streams).
func buildMemo(sc *scenario, seed int64) (*memoClassifier, error) {
	clf, err := dnn.NewClassifier(profile, sc.classes, seed)
	if err != nil {
		return nil, err
	}
	m := &memoClassifier{table: make(map[*vision.Image]dnn.Inference)}
	err = sc.eachFrame(func(_ int, f frameIn) error {
		inf, err := clf.Infer(f.img)
		if err != nil {
			return err
		}
		m.table[f.img] = inf
		return nil
	})
	return m, err
}

// eachFrame visits every frame in single-goroutine processing order:
// frame 0 of every stream, then frame 1 of every stream, and so on.
func (sc *scenario) eachFrame(fn func(stream int, f frameIn) error) error {
	for i := 0; ; i++ {
		any := false
		for s, stream := range sc.streams {
			if i >= len(stream) {
				continue
			}
			any = true
			if err := fn(s, stream[i]); err != nil {
				return err
			}
		}
		if !any {
			return nil
		}
	}
}

// accelScale converts simulated inference latency into real
// accelerator occupancy, as experiment E20 does: a 120 ms simulated
// inference really occupies the accelerator for 8 ms.
const accelScale = 1.0 / 15

// accelerator is the pool workload's classifier: the live simulated
// DNN behind a serial occupancy model. One invocation at a time holds
// the mutex while really sleeping accelScale x its simulated latency,
// so concurrent misses queue as they would in front of one NPU and a
// batched invocation occupies it once for the whole batch.
type accelerator struct {
	inner *dnn.Classifier
	mu    sync.Mutex
	// busyNS is the total time the accelerator was occupied.
	busyNS atomic.Int64

	// occ, when non-nil (traced passes), remembers how long the
	// invocation that served each frame occupied the accelerator, so
	// the Infer wrapper can subtract it from the time spent waiting.
	occMu sync.Mutex
	occ   map[*vision.Image]time.Duration
}

var _ dnn.BatchClassifier = (*accelerator)(nil)

func (a *accelerator) Profile() dnn.Profile { return a.inner.Profile() }

func (a *accelerator) Infer(im *vision.Image) (dnn.Inference, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	inf, err := a.inner.Infer(im)
	if err != nil {
		return inf, err
	}
	a.occupy(time.Duration(accelScale*float64(inf.Latency)), im)
	return inf, nil
}

func (a *accelerator) InferBatch(ims []*vision.Image) ([]dnn.Inference, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	infs, err := a.inner.InferBatch(ims)
	if err != nil {
		return nil, err
	}
	var sim time.Duration
	for _, inf := range infs {
		sim += inf.Latency // amortized per-frame shares sum to the batch cost
	}
	a.occupy(time.Duration(accelScale*float64(sim)), ims...)
	return infs, nil
}

// occupy holds the accelerator for d on behalf of ims and books the
// time it was really held (sleeps overshoot).
func (a *accelerator) occupy(d time.Duration, ims ...*vision.Image) {
	start := time.Now()
	time.Sleep(d)
	d = time.Since(start)
	a.busyNS.Add(int64(d))
	if a.occ == nil {
		return
	}
	a.occMu.Lock()
	for _, im := range ims {
		a.occ[im] = d
	}
	a.occMu.Unlock()
}

// occupancyOf returns how long the invocation that served im held the
// accelerator (traced passes only).
func (a *accelerator) occupancyOf(im *vision.Image) time.Duration {
	a.occMu.Lock()
	defer a.occMu.Unlock()
	return a.occ[im]
}
