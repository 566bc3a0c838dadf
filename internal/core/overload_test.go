package core

import (
	"errors"
	"testing"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/dnn"
	"approxcache/internal/lsh"
	"approxcache/internal/metrics"
	"approxcache/internal/simclock"
	"approxcache/internal/vision"
)

// overloadConfig strips the motion gates so every frame exercises the
// cache lookup and the guarded fallback — the overload-protected path.
func overloadConfig() Config {
	cfg := DefaultConfig()
	cfg.DisableIMUGate = true
	cfg.DisableVideoGate = true
	cfg.DisableSensorGuards = true
	return cfg
}

// newOverloadFixture is newFixture with an optional custom classifier.
func newOverloadFixture(t *testing.T, cfg Config, cls Classifier) *fixture {
	t.Helper()
	classes, err := vision.NewClassSet(6, 48, 48, 77)
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewVirtual(time.Unix(0, 0))
	if cls == nil {
		classifier, err := dnn.NewClassifier(perfectProfile(), classes, 1)
		if err != nil {
			t.Fatal(err)
		}
		cls = classifier
	}
	idx, err := lsh.NewHyperplane(cfg.Extractor.Dim(), 12, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	store, err := cachestore.New(cachestore.Config{Capacity: 128}, idx, clock)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(cfg, Deps{Clock: clock, Classifier: cls, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{engine: eng, clock: clock, store: store, classes: classes}
}

// seedLastResult plants a prior recognition so the degradation ladder's
// last-result rung has something to serve.
func seedLastResult(e *Engine, label string) {
	e.mu.Lock()
	e.last = Result{Label: label, Confidence: 0.9, Source: metrics.SourceDNN}
	e.hasLast = true
	e.mu.Unlock()
}

// Two pool sessions must not retry a sick classifier in lockstep: their
// deterministic jitter schedules have to diverge.
func TestRetryJitterSchedulesDiverge(t *testing.T) {
	a, b := jitterSeedFor(0), jitterSeedFor(1)
	if a == b {
		t.Fatal("adjacent sessions got the same jitter seed")
	}
	identical := true
	for attempt := 0; attempt < 6; attempt++ {
		ja, jb := retryPause(a, attempt), retryPause(b, attempt)
		for _, j := range []time.Duration{ja, jb} {
			if j < 0 || j >= retryJitter {
				t.Fatalf("attempt %d jitter %v outside [0, %v)", attempt, j, retryJitter)
			}
		}
		if ja != jb {
			identical = false
		}
	}
	if identical {
		t.Fatal("sessions 0 and 1 share an identical retry schedule")
	}
	// The schedule is deterministic: same seed, same pauses.
	if retryPause(a, 3) != retryPause(a, 3) {
		t.Fatal("jitter is not deterministic")
	}
}

func TestPoolSessionsGetDistinctJitterSeeds(t *testing.T) {
	f := newFixture(t, DefaultConfig(), nil)
	pool, err := NewPool(3, DefaultConfig(), Deps{
		Clock: f.clock, Classifier: f.engine.deps.Classifier, Store: f.store,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, e := range pool.Sessions() {
		if seen[e.jitterSeed] {
			t.Fatalf("duplicate jitter seed %x", e.jitterSeed)
		}
		seen[e.jitterSeed] = true
	}
}

// A frame that blows its deadline before the fallback must be answered
// from the ladder as a typed shed — or fail with ErrDeadlineExceeded
// when the ladder is empty — never occupy the classifier.
func TestDeadlineBlownShedsToLadder(t *testing.T) {
	cfg := overloadConfig()
	cfg.RequestDeadline = time.Nanosecond
	f := newOverloadFixture(t, cfg, nil)
	proto, err := f.classes.Prototype(0)
	if err != nil {
		t.Fatal(err)
	}

	// Cold ladder: the refusal surfaces as the typed cause.
	if _, err := f.engine.Process(proto, nil); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("cold-ladder error = %v, want ErrDeadlineExceeded", err)
	}
	if drops := f.engine.Stats().ExpiredDrops(); drops != 1 {
		t.Fatalf("expired drops = %d, want 1", drops)
	}

	// Warm ladder: the shed is served, typed, at reduced confidence.
	seedLastResult(f.engine, "seeded")
	res, err := f.engine.Process(proto, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != metrics.SourceShed || res.Degradation != DegradeDeadline {
		t.Fatalf("shed typing = %s/%s, want shed/deadline", res.Source, res.Degradation)
	}
	if res.Label != "seeded" || res.Confidence != 0.9*fallbackConfidence {
		t.Fatalf("shed answer = %q conf %v", res.Label, res.Confidence)
	}
	inDeadline, late := f.engine.Stats().DeadlineCompletions()
	if inDeadline != 0 || late != 1 {
		t.Fatalf("deadline completions = %d in / %d late, want 0/1", inDeadline, late)
	}
}

func TestDeadlineCompletionAccounting(t *testing.T) {
	cfg := overloadConfig()
	cfg.RequestDeadline = time.Hour
	f := newOverloadFixture(t, cfg, nil)
	proto, err := f.classes.Prototype(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.engine.Process(proto, nil); err != nil {
		t.Fatal(err)
	}
	inDeadline, late := f.engine.Stats().DeadlineCompletions()
	if inDeadline != 1 || late != 0 {
		t.Fatalf("deadline completions = %d in / %d late, want 1/0", inDeadline, late)
	}
}

// scriptedClassifier fails each inference with the next of errs.
type scriptedClassifier struct {
	inner *dnn.Classifier
	errs  []error
}

func (c *scriptedClassifier) Profile() dnn.Profile { return c.inner.Profile() }

func (c *scriptedClassifier) Infer(*vision.Image) (dnn.Inference, error) {
	err := c.errs[0]
	c.errs = c.errs[1:]
	return dnn.Inference{}, err
}

// A shed is the frame's own: after a frame the full queue shed, the
// next frame's outage goes down the ladder as a fallback, not as a
// shed. The engine pools its frames, so the second frame reuses the
// first's. A shed with nothing on the ladder fails typed, and every
// shed is counted.
func TestShedEndsWithItsFrame(t *testing.T) {
	cfg := overloadConfig()
	cfg.DisableWatchdog = true
	classes, err := vision.NewClassSet(6, 48, 48, 77)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := dnn.NewClassifier(perfectProfile(), classes, 1)
	if err != nil {
		t.Fatal(err)
	}
	cls := &scriptedClassifier{inner: inner, errs: []error{dnn.ErrQueueFull, dnn.ErrQueueFull, errors.New("accelerator down")}}
	f := newOverloadFixture(t, cfg, cls)
	proto, err := classes.Prototype(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.engine.Process(proto, nil); !errors.Is(err, dnn.ErrQueueFull) {
		t.Fatalf("cold shed: err = %v, want ErrQueueFull", err)
	}
	seedLastResult(f.engine, "seeded")
	for i, want := range []struct {
		src metrics.Source
		deg DegradationLevel
	}{{metrics.SourceShed, DegradeOverload}, {metrics.SourceFallback, DegradeLastResult}} {
		res, err := f.engine.Process(proto, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Source != want.src || res.Degradation != want.deg {
			t.Fatalf("frame %d: %s/%s, want %s/%s", i, res.Source, res.Degradation, want.src, want.deg)
		}
	}
	if sheds := f.engine.Stats().Sheds(); sheds != 2 {
		t.Fatalf("sheds = %d, want 2 (the cold frame and the seeded one)", sheds)
	}
}
