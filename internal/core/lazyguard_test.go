package core

// The frame guard is lazy: a frame's pixels are guarded by the first
// stage that reads them, and the guard's thumbnail feeds the descriptor.
// These tests hold that to the eager order it replaced — identical
// behaviour on clean input — pin what changed on malformed input, and
// show that a frame the inertial gate serves is never read.

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/dnn"
	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/metrics"
	"approxcache/internal/simclock"
	"approxcache/internal/trace"
	"approxcache/internal/vision"
)

// refExtractor is the default descriptor (8×8 grid of cell means, 16-bin
// histogram, unit norm) written out longhand from the pixels: cell by
// cell, float counters, no thumbnail, and none of the optional methods,
// so an engine over it takes every fallback.
type refExtractor struct{}

func (refExtractor) Dim() int     { return 80 }
func (refExtractor) Name() string { return "ref-grid8x8+hist16" }

func (refExtractor) Extract(im *vision.Image) (feature.Vector, error) {
	if !im.WellFormed() || im.W < 8 || im.H < 8 {
		return nil, fmt.Errorf("ref extractor: unusable frame")
	}
	out := make(feature.Vector, 80)
	for gy := 0; gy < 8; gy++ {
		y0, y1 := gy*im.H/8, (gy+1)*im.H/8
		for gx := 0; gx < 8; gx++ {
			x0, x1 := gx*im.W/8, (gx+1)*im.W/8
			var sum float64
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					sum += im.Pix[y*im.W+x]
				}
			}
			out[gy*8+gx] = sum / float64((y1-y0)*(x1-x0))
		}
	}
	for _, p := range im.Pix {
		b := int(p * 16)
		if b < 0 {
			b = 0
		} else if b > 15 {
			b = 15
		}
		out[64+b]++
	}
	for i := 64; i < 80; i++ {
		out[i] /= float64(len(im.Pix))
	}
	out.Normalize()
	return out, nil
}

// diffStream is a named differential input.
type diffStream struct {
	name    string
	classes *vision.ClassSet
	frames  []diffFrame
}

// standardStreams returns the four standard IMU+video traces and a churn
// photo stream.
func standardStreams(t *testing.T) []diffStream {
	t.Helper()
	var out []diffStream
	for _, spec := range trace.StandardSpecs(240, 3) {
		w, err := trace.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, diffStream{spec.Name, w.Classes, traceFrames(w)})
	}
	classes, frames := churnStream(t, 500)
	return append(out, diffStream{"churn", classes, frames})
}

// TestLazyGuardMatchesEagerGuardOnCleanInput runs every stream through
// the engine and through the order it had before — each frame guarded
// before any gate sees it, the descriptor summed from the pixels — and
// requires the same results, scoreboard and final cache, with and
// without the audit path (which reads frames the gates did not).
func TestLazyGuardMatchesEagerGuardOnCleanInput(t *testing.T) {
	audited := DefaultConfig()
	audited.Quality = QualityConfig{Enabled: true, Synchronous: true, AuditSampleEvery: 3}
	imuServed := 0
	for _, st := range standardStreams(t) {
		name := st.name
		for variant, cfg := range map[string]Config{"default": DefaultConfig(), "audited": audited} {
			lazy := runDiffSide(t, cfg, st.classes, 128, st.frames, false, nil, nil)
			eager := cfg
			eager.Extractor = refExtractor{}
			next := 0
			guardFirst := func(e *Engine) {
				if f := vision.CheckFrame(st.frames[next].img, e.cfg.FrameGuard); f != vision.FrameOK {
					t.Fatalf("%s frame %d is not clean: %v", name, next, f)
				}
				next++
			}
			ref := runDiffSide(t, eager, st.classes, 128, st.frames, false, nil, guardFirst)
			for i := range lazy.results {
				if lazy.results[i] != ref.results[i] {
					t.Fatalf("%s/%s frame %d: lazy %+v, eager %+v", name, variant, i, lazy.results[i], ref.results[i])
				}
				if lazy.results[i].Source == metrics.SourceIMU {
					imuServed++
				}
			}
			if !reflect.DeepEqual(lazy, ref) {
				lazy.results, ref.results, lazy.entries, ref.entries = nil, nil, nil, nil
				t.Fatalf("%s/%s: scoreboard or cache differ:\nlazy  %+v\neager %+v", name, variant, lazy, ref)
			}
			if len(lazy.faults) != 0 {
				t.Fatalf("%s/%s: clean input counted sensor faults %v", name, variant, lazy.faults)
			}
			if variant == "audited" && lazy.audits == 0 {
				t.Fatalf("%s: no audit ran", name)
			}
		}
	}
	if imuServed == 0 {
		t.Fatal("no frame was served by the inertial gate")
	}
}

func nanFrame(im *vision.Image) *vision.Image {
	bad := im.Clone()
	bad.Pix[len(bad.Pix)/3] = math.NaN()
	return bad
}

// TestLazyGuardMalformedFrames pins what a malformed frame meets: a bad
// shape is refused whatever the device is doing; a non-finite pixel is
// refused by whichever stage would read it — which is every frame except
// one the inertial gate answers.
func TestLazyGuardMalformedFrames(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxReuseStreak = 4
	f := newFixture(t, cfg, nil)
	proto, err := f.classes.Prototype(3)
	if err != nil {
		t.Fatal(err)
	}
	bad := nanFrame(proto)
	faults := func() map[string]int { return f.engine.Stats().SensorFaults() }
	at := time.Duration(0)
	step := func(im *vision.Image, moving bool) (Result, error) {
		at += 100 * time.Millisecond
		if moving {
			return f.engine.Process(im, movingWindow(at))
		}
		return f.engine.Process(im, stationaryWindow(at))
	}

	// First frame: nothing to reuse, so the frame is read.
	if _, err := step(bad, false); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("NaN first frame: err = %v, want ErrBadFrame", err)
	}
	first, err := step(proto, false)
	if err != nil || first.Source != metrics.SourceDNN {
		t.Fatalf("clean first frame: %+v, %v", first, err)
	}
	// Device at rest: the inertial gate answers without reading the frame.
	for i := 0; i < 2; i++ {
		res, err := step(bad, false)
		if err != nil || res.Source != metrics.SourceIMU || res.Label != first.Label {
			t.Fatalf("NaN frame at rest: %+v, %v; want the last result from the inertial gate", res, err)
		}
	}
	if got := faults(); got["frame-non-finite"] != 1 || len(got) != 1 {
		t.Fatalf("faults after serving NaN frames at rest = %v, want the first frame's only", got)
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
	if _, err := step(bad, false); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("NaN frame on a forced revalidation: err = %v, want ErrBadFrame", err)
	}
	if res, err := step(proto, false); err != nil || res.Source != metrics.SourceDNN {
		t.Fatalf("revalidation after the refused frame: %+v, %v", res, err)
	}
	// Device moving: the inertial gate passes, the next stage reads.
	if _, err := step(bad, true); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("NaN frame while moving: err = %v, want ErrBadFrame", err)
	}
	if got := faults()["frame-non-finite"]; got != 3 {
		t.Fatalf("frame-non-finite = %d, want 3", got)
	}
	if got, want := f.engine.Stats().Frames(), 6; got != want {
		t.Fatalf("frames observed = %d, want %d (refused frames are not served)", got, want)
	}
}

// guardedClassifier fails the test when it is handed a frame with a
// non-finite pixel: whatever reaches the classifier — serving or audit —
// must have been through the frame guard.
type guardedClassifier struct {
	Classifier
	t *testing.T
}

func (g guardedClassifier) Infer(im *vision.Image) (dnn.Inference, error) {
	for _, p := range im.Pix {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			g.t.Error("an unguarded frame reached the classifier")
			break
		}
	}
	return g.Classifier.Infer(im)
}

// TestIMUServedFramesAreNeverRead replays a mostly-stationary trace with
// the pixels of every frame the inertial gate served replaced by NaN.
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
	cfg.Quality = QualityConfig{Enabled: true, Synchronous: true, AuditSampleEvery: 4}
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
				im = vision.NewImage(im.W, im.H)
				for j := range im.Pix {
					im.Pix[j] = math.NaN()
				}
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
	if faults := stats.SensorFaults(); faults["frame-non-finite"] != skipped || len(faults) != 1 {
		t.Fatalf("sensor faults %v, want frame-non-finite = %d skipped audits and nothing else", faults, skipped)
	}
}
