package core

// The frame guard is lazy: a frame's pixels are guarded by the first
// stage that reads them, and the guard's thumbnail feeds the descriptor.
// The engine model (model_test.go) holds the engine to the eager order it
// replaced; these tests pin what changed on malformed input and show
// that a frame the inertial gate serves is never read.

import (
	"errors"
	"testing"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/dnn"
	"approxcache/internal/lsh"
	"approxcache/internal/metrics"
	"approxcache/internal/simclock"
	"approxcache/internal/trace"
	"approxcache/internal/vision"
)

// TestLazyGuardMalformedFrames pins what a faulty frame meets: a bad
// shape is refused whatever the device is doing; a low-entropy frame is
// flagged by whichever stage would read it — which is every frame except
// one the inertial gate answers — and goes to the DNN alone.
func TestLazyGuardMalformedFrames(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxReuseStreak = 4
	f := newFixture(t, cfg, nil)
	proto, err := f.classes.Prototype(3)
	if err != nil {
		t.Fatal(err)
	}
	flat := flatFrame(proto)
	faults := func() map[string]int { return f.engine.Stats().SensorFaults() }
	at := time.Duration(0)
	step := func(im *vision.Image, moving bool) (Result, error) {
		at += 100 * time.Millisecond
		if moving {
			return f.engine.Process(im, movingWindow(at))
		}
		return f.engine.Process(im, stationaryWindow(at))
	}

	first, err := step(proto, false)
	if err != nil || first.Source != metrics.SourceDNN {
		t.Fatalf("clean first frame: %+v, %v", first, err)
	}
	// Device at rest: the inertial gate answers without reading the frame.
	for i := 0; i < 2; i++ {
		res, err := step(flat, false)
		if err != nil || res.Source != metrics.SourceIMU || res.Label != first.Label {
			t.Fatalf("flat frame at rest: %+v, %v; want the last result from the inertial gate", res, err)
		}
	}
	if got := faults(); len(got) != 0 {
		t.Fatalf("faults after serving flat frames at rest = %v, want none", got)
	}
	// A bad shape is refused even at rest.
	for _, im := range []*vision.Image{
		{W: proto.W, H: proto.H, Pix: proto.Pix[:len(proto.Pix)-1]},
		{W: proto.W, H: proto.H},
		{},
	} {
		if _, err := step(im, false); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("mis-sized frame at rest: err = %v, want ErrBadFrame", err)
		}
	}
	if got := faults()["frame-empty"]; got != 3 {
		t.Fatalf("frame-empty = %d, want 3", got)
	}
	// Reuse streak at its cap: the frame must revalidate, so it is read.
	for i := 0; i < 2; i++ {
		if res, err := step(proto, false); err != nil || res.Source != metrics.SourceIMU {
			t.Fatalf("clean frame at rest: %+v, %v", res, err)
		}
	}
	if res, err := step(flat, false); err != nil || res.Source != metrics.SourceDNN {
		t.Fatalf("flat frame on a forced revalidation: %+v, %v; want the DNN", res, err)
	}
	if got := faults()["frame-low-entropy"]; got != 1 {
		t.Fatalf("frame-low-entropy = %d after the revalidation, want 1", got)
	}
	// Device moving: the inertial gate passes, the next stage reads.
	if res, err := step(flat, true); err != nil || res.Source != metrics.SourceDNN {
		t.Fatalf("flat frame while moving: %+v, %v; want the DNN", res, err)
	}
	if got := faults()["frame-low-entropy"]; got != 2 {
		t.Fatalf("frame-low-entropy = %d, want 2", got)
	}
	if got, want := f.engine.Stats().Frames(), 7; got != want {
		t.Fatalf("frames observed = %d, want %d (refused frames are not served)", got, want)
	}
}

// TestRefusedFrameLeavesLastResult: a frame the guard refuses is
// answered and booked, but its answer does not become the last result
// and it neither ends nor extends the reuse streak. A flat frame that
// meets a forced revalidation therefore leaves the revalidation owed,
// and the still frame after it is inferred afresh rather than served
// the flat frame's answer by the inertial gate.
func TestRefusedFrameLeavesLastResult(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxReuseStreak = 2
	f := newFixture(t, cfg, nil)
	proto, err := f.classes.Prototype(3)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Duration(0)
	still := func(im *vision.Image) Result {
		t.Helper()
		at += 100 * time.Millisecond
		res, err := f.engine.Process(im, stationaryWindow(at))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first, prev := still(proto), Result{}
	for i := 0; i < 2; i++ {
		if prev = still(proto); prev.Source != metrics.SourceIMU {
			t.Fatalf("still frame %d: %+v, want the inertial gate", i, prev)
		}
	}
	if res := still(flatFrame(proto)); res.Source != metrics.SourceDNN {
		t.Fatalf("flat frame on a forced revalidation: %+v, want the DNN", res)
	}
	if last, _ := f.engine.lastResult(); last != prev {
		t.Fatalf("last result %+v after a refused frame, want the one before it, %+v", last, prev)
	}
	if res := still(proto); res.Source != metrics.SourceDNN || res.Label != first.Label {
		t.Fatalf("still frame after the flat one: %+v, want a fresh inference of %q", res, first.Label)
	}
	if got, want := f.engine.Stats().Frames(), 5; got != want {
		t.Fatalf("frames observed = %d, want %d (a refused frame is still booked)", got, want)
	}
}

// guardedClassifier fails the test when it is handed a low-entropy
// frame: in TestIMUServedFramesAreNeverRead such frames reach the engine
// only where the inertial gate serves them, so whatever reaches the
// classifier — serving or audit — must have been through the frame guard
// and passed it.
type guardedClassifier struct {
	Classifier
	t *testing.T
}

func (g guardedClassifier) Infer(im *vision.Image) (dnn.Inference, error) {
	if vision.CheckFrame(im, vision.DefaultFrameGuardConfig()) != vision.FrameOK {
		g.t.Error("an unguarded frame reached the classifier")
	}
	return g.Classifier.Infer(im)
}

// TestIMUServedFramesAreNeverRead replays a mostly-stationary trace with
// every frame the inertial gate served replaced by a flat one.
// Nothing may change: same results, no fault — except where an audit was
// sampled onto such a frame, which must guard it, count the fault and
// skip, handing the classifier nothing.
func TestIMUServedFramesAreNeverRead(t *testing.T) {
	w, err := trace.Generate(trace.StationaryHeavy(240, 3))
	if err != nil {
		t.Fatal(err)
	}
	frames := traceFrames(w)
	cfg := DefaultConfig()
	cfg.Quality = QualityConfig{Enabled: true, AuditSampleEvery: 4}
	run := func(poison map[int]bool) ([]Result, *metrics.SessionStats) {
		clock := simclock.NewVirtual(time.Unix(0, 0))
		clf, err := dnn.NewClassifier(perfectProfile(), w.Classes, 1)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := lsh.NewHyperplane(cfg.Extractor.Dim(), 12, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		store, err := cachestore.New(cachestore.Config{Capacity: 128}, idx, clock)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(cfg, Deps{Clock: clock, Classifier: guardedClassifier{clf, t}, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		results := make([]Result, len(frames))
		for i, fr := range frames {
			im := fr.img
			if poison[i] {
				im = flatFrame(im)
			}
			if results[i], err = eng.Process(im, fr.win); err != nil {
				t.Fatalf("frame %d (poisoned=%v): %v", i, poison[i], err)
			}
		}
		return results, eng.Stats()
	}
	clean, cleanStats := run(nil)
	if _, refuted := cleanStats.Audits(); refuted != 0 {
		t.Fatalf("trace unsuitable: %d audits refuted on clean input", refuted)
	}
	poison := map[int]bool{}
	for i, r := range clean {
		if r.Source == metrics.SourceIMU {
			poison[i] = true
		}
	}
	if len(poison) < len(clean)/2 {
		t.Fatalf("only %d of %d frames served by the inertial gate", len(poison), len(clean))
	}
	got, stats := run(poison)
	for i := range clean {
		if got[i] != clean[i] {
			t.Fatalf("frame %d (poisoned=%v): %+v, clean run %+v", i, poison[i], got[i], clean[i])
		}
	}
	cleanAudits, _ := cleanStats.Audits()
	audits, _ := stats.Audits()
	skipped := cleanAudits - audits
	if skipped <= 0 {
		t.Fatalf("no audit fell on a poisoned frame (%d audits clean, %d poisoned)", cleanAudits, audits)
	}
	if faults := stats.SensorFaults(); faults["frame-low-entropy"] != skipped || len(faults) != 1 {
		t.Fatalf("sensor faults %v, want frame-low-entropy = %d skipped audits and nothing else", faults, skipped)
	}
}
