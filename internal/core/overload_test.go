package core

import (
	"errors"
	"testing"
	"time"

	"approxcache/internal/admission"
	"approxcache/internal/cachestore"
	"approxcache/internal/dnn"
	"approxcache/internal/lsh"
	"approxcache/internal/metrics"
	"approxcache/internal/simclock"
	"approxcache/internal/vision"
)

// blockingClassifier parks every Infer call until release is closed, so
// tests can hold the admission limiter's only slot deterministically.
type blockingClassifier struct {
	inner   *dnn.Classifier
	release chan struct{}
}

func (b *blockingClassifier) Profile() dnn.Profile { return b.inner.Profile() }

func (b *blockingClassifier) Infer(im *vision.Image) (dnn.Inference, error) {
	<-b.release
	return b.inner.Infer(im)
}

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
	e.lastAt = e.deps.Clock.Now()
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

// admissionInitialLimit is the limiter's starting concurrency limit.
const admissionInitialLimit = 8

// brownOut drives ctrl to the first-candidate rung the way a saturated
// inference queue does: every admitted inference comes back as an
// overflow, which halves the limit to its floor (8 → 1) and from there
// counts as brownout pressure.
func brownOut(t *testing.T, ctrl *admission.Controller) {
	t.Helper()
	for i := 0; i < 40 && ctrl.Level() != admission.LevelFirstCandidate; i++ {
		if ctrl.TryAcquire() {
			ctrl.ReleaseOverflow()
		}
	}
	if got := ctrl.Level(); got != admission.LevelFirstCandidate {
		t.Fatalf("brownout level %v, want first-candidate", got)
	}
}

// waitInflight polls until the limiter reports n in-flight inferences.
func waitInflight(t *testing.T, e *Engine, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if snap, ok := e.AdmissionSnapshot(); ok && snap.Inflight == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("limiter never reached %d in-flight", n)
}

// With every slot of the limiter's initial limit held by a blocked
// inference, further DNN-needing frames must shed: a typed error on a
// cold ladder, a typed SourceShed/DegradeOverload result on a warm one.
func TestAdmissionRefusalShedsTyped(t *testing.T) {
	cfg := overloadConfig()
	cfg.DisableWatchdog = true
	cfg.Admission = true
	classes, err := vision.NewClassSet(6, 48, 48, 77)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := dnn.NewClassifier(perfectProfile(), classes, 1)
	if err != nil {
		t.Fatal(err)
	}
	blocked := &blockingClassifier{inner: inner, release: make(chan struct{})}
	f := newOverloadFixture(t, cfg, blocked)
	f.classes = classes
	proto, err := classes.Prototype(0)
	if err != nil {
		t.Fatal(err)
	}

	hold := make(chan error, admissionInitialLimit)
	for i := 0; i < admissionInitialLimit; i++ {
		go func() {
			_, err := f.engine.Process(proto, nil)
			hold <- err
		}()
	}
	waitInflight(t, f.engine, admissionInitialLimit)

	if _, err := f.engine.Process(proto, nil); !errors.Is(err, ErrOverloadShed) {
		t.Fatalf("cold-ladder error = %v, want ErrOverloadShed", err)
	}
	seedLastResult(f.engine, "seeded")
	res, err := f.engine.Process(proto, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != metrics.SourceShed || res.Degradation != DegradeOverload {
		t.Fatalf("shed typing = %s/%s, want shed/overload", res.Source, res.Degradation)
	}
	if sheds := f.engine.Stats().Sheds(); sheds != 2 {
		t.Fatalf("sheds = %d, want 2", sheds)
	}

	close(blocked.release)
	for i := 0; i < admissionInitialLimit; i++ {
		if err := <-hold; err != nil {
			t.Fatalf("held inference failed: %v", err)
		}
	}
	snap, ok := f.engine.AdmissionSnapshot()
	if !ok || snap.Admitted != admissionInitialLimit || snap.Shed != 2 || snap.Inflight != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// fullClassifier refuses every inference the way a saturated batcher
// queue does.
type fullClassifier struct{ inner *dnn.Classifier }

func (c fullClassifier) Profile() dnn.Profile { return c.inner.Profile() }

func (fullClassifier) Infer(*vision.Image) (dnn.Inference, error) {
	return dnn.Inference{}, dnn.ErrQueueFull
}

// Sustained pressure at the limiter floor browns out the vote: the
// engine serves the nearest in-range candidate directly (k=1) instead
// of running the homogenized-kNN acceptance.
func TestBrownoutServesFirstCandidate(t *testing.T) {
	cfg := overloadConfig()
	cfg.Admission = true
	classes, err := vision.NewClassSet(6, 48, 48, 77)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := dnn.NewClassifier(perfectProfile(), classes, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := newOverloadFixture(t, cfg, fullClassifier{inner})
	other, err := classes.Prototype(1)
	if err != nil {
		t.Fatal(err)
	}

	// Every refused inference is an overflow: five halve the limit to
	// its floor (8 → 4 → 2 → 1, one halving per two completions), the
	// fifth is the first pressure event there, and every 8th pressure
	// event raises the ladder one rung: full → no-peer → first-candidate.
	for i := 1; i <= 20; i++ {
		if _, err := f.engine.Process(other, nil); !errors.Is(err, dnn.ErrQueueFull) {
			t.Fatalf("refusal %d error = %v, want ErrQueueFull", i, err)
		}
		want := admission.LevelFull
		switch {
		case i >= 20:
			want = admission.LevelFirstCandidate
		case i >= 12:
			want = admission.LevelNoPeer
		}
		if snap, ok := f.engine.AdmissionSnapshot(); !ok || snap.Level != want {
			t.Fatalf("after %d refusals: brownout level %v, want %v", i, snap.Level, want)
		}
	}
	raised, lowered := f.engine.Stats().BrownoutTransitions()
	if raised != 2 || lowered != 0 {
		t.Fatalf("brownout transitions = %d up / %d down, want 2/0", raised, lowered)
	}

	// A cached candidate at distance zero is served straight from the
	// store, no vote, while the accelerator stays saturated.
	vec, err := cfg.Extractor.Extract(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.store.Insert(vec, "first-cand", 0.8, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	res, err := f.engine.Process(other, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != metrics.SourceLocal || res.Label != "first-cand" {
		t.Fatalf("brownout serve = %s/%q, want local/first-cand", res.Source, res.Label)
	}
}
