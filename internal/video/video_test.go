package video

import (
	"testing"
	"time"

	"approxcache/internal/imu"
	"approxcache/internal/vision"
)

func classes(t *testing.T, n int) *vision.ClassSet {
	t.Helper()
	cs, err := vision.NewClassSet(n, 48, 48, 31)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestStreamConfigValidate(t *testing.T) {
	good := StreamConfig{
		FPS:      15,
		Segments: []Segment{{Regime: imu.Stationary, Frames: 10}},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []StreamConfig{
		{Segments: []Segment{{Regime: imu.Stationary, Frames: 1}}},
		{FPS: 15},
		{FPS: 15, Segments: []Segment{{Regime: imu.Stationary, Frames: 0}}},
		{FPS: 15, Segments: []Segment{{Regime: imu.Regime(77), Frames: 5}}},
		{FPS: 15, SceneHold: -1, Segments: []Segment{{Regime: imu.Stationary, Frames: 1}}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGenerateNilClasses(t *testing.T) {
	cfg := StreamConfig{FPS: 15, Segments: []Segment{{Regime: imu.Stationary, Frames: 1}}}
	if _, err := Generate(cfg, nil); err == nil {
		t.Fatal("nil class set accepted")
	}
}

func TestGenerateBasicShape(t *testing.T) {
	cs := classes(t, 4)
	cfg := StreamConfig{
		FPS: 10,
		Segments: []Segment{
			{Regime: imu.Stationary, Frames: 20},
			{Regime: imu.Walking, Frames: 30},
		},
		Perturb: vision.DefaultPerturbation(),
		Seed:    1,
	}
	frames, err := Generate(cfg, cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 50 {
		t.Fatalf("len = %d, want 50", len(frames))
	}
	for i, f := range frames {
		if f.Index != i {
			t.Fatalf("frame %d has index %d", i, f.Index)
		}
		if f.Offset != time.Duration(i)*100*time.Millisecond {
			t.Fatalf("frame %d offset = %v", i, f.Offset)
		}
		if f.Image == nil {
			t.Fatalf("frame %d has nil image", i)
		}
		if f.Class < 0 || f.Class >= 4 {
			t.Fatalf("frame %d class = %d", i, f.Class)
		}
	}
	for i := 0; i < 20; i++ {
		if frames[i].Regime != imu.Stationary {
			t.Fatalf("frame %d regime = %v", i, frames[i].Regime)
		}
	}
	for i := 20; i < 50; i++ {
		if frames[i].Regime != imu.Walking {
			t.Fatalf("frame %d regime = %v", i, frames[i].Regime)
		}
	}
}

func TestStationarySegmentHoldsScene(t *testing.T) {
	cs := classes(t, 4)
	cfg := StreamConfig{
		FPS:      15,
		Segments: []Segment{{Regime: imu.Stationary, Frames: 40}},
		Seed:     2,
	}
	frames, err := Generate(cfg, cs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if f.Scene != frames[0].Scene || f.Class != frames[0].Class {
			t.Fatalf("stationary scene changed at frame %d", f.Index)
		}
	}
}

func TestWalkingChangesScenes(t *testing.T) {
	cs := classes(t, 6)
	cfg := StreamConfig{
		FPS:      15,
		Segments: []Segment{{Regime: imu.Walking, Frames: 90}},
		Seed:     3,
	}
	frames, err := Generate(cfg, cs)
	if err != nil {
		t.Fatal(err)
	}
	scenes := make(map[int]struct{})
	for _, f := range frames {
		scenes[f.Scene] = struct{}{}
	}
	// 90 frames at hold 15 → 6 scenes.
	if len(scenes) < 4 {
		t.Fatalf("walking produced only %d scenes", len(scenes))
	}
}

func TestPanningChangesFasterThanWalking(t *testing.T) {
	cs := classes(t, 6)
	count := func(r imu.Regime) int {
		cfg := StreamConfig{
			FPS:      15,
			Segments: []Segment{{Regime: r, Frames: 120}},
			Seed:     4,
		}
		frames, err := Generate(cfg, cs)
		if err != nil {
			t.Fatal(err)
		}
		scenes := make(map[int]struct{})
		for _, f := range frames {
			scenes[f.Scene] = struct{}{}
		}
		return len(scenes)
	}
	if count(imu.Panning) <= count(imu.Walking) {
		t.Fatal("panning should change scenes faster than walking")
	}
}

func TestSceneChangeChangesClassAndMonotonicSceneIDs(t *testing.T) {
	cs := classes(t, 6)
	cfg := StreamConfig{
		FPS:      15,
		Segments: []Segment{{Regime: imu.Panning, Frames: 80}},
		Seed:     5,
	}
	frames, err := Generate(cfg, cs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(frames); i++ {
		prev, cur := frames[i-1], frames[i]
		if cur.Scene < prev.Scene {
			t.Fatal("scene ids not monotonic")
		}
		if cur.Scene == prev.Scene && cur.Class != prev.Class {
			t.Fatal("class changed within a scene")
		}
		if cur.Scene != prev.Scene && cur.Class == prev.Class {
			t.Fatal("scene change kept the same class (should avoid immediate repeat)")
		}
	}
}

func TestSceneHoldOverride(t *testing.T) {
	cs := classes(t, 6)
	cfg := StreamConfig{
		FPS:       15,
		Segments:  []Segment{{Regime: imu.Walking, Frames: 30}},
		SceneHold: 5,
		Seed:      6,
	}
	frames, err := Generate(cfg, cs)
	if err != nil {
		t.Fatal(err)
	}
	scenes := make(map[int]struct{})
	for _, f := range frames {
		scenes[f.Scene] = struct{}{}
	}
	if len(scenes) != 6 {
		t.Fatalf("hold=5 over 30 frames should give 6 scenes, got %d", len(scenes))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cs := classes(t, 4)
	cfg := StreamConfig{
		FPS: 15,
		Segments: []Segment{
			{Regime: imu.Handheld, Frames: 10},
			{Regime: imu.Panning, Frames: 20},
		},
		Perturb: vision.DefaultPerturbation(),
		Seed:    7,
	}
	a, err := Generate(cfg, cs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, cs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Class != b[i].Class || a[i].Scene != b[i].Scene {
			t.Fatalf("streams diverged at frame %d", i)
		}
		if vision.MeanAbsDiff(a[i].Image, b[i].Image) != 0 {
			t.Fatalf("images diverged at frame %d", i)
		}
	}
}

func TestDiffGateConfigValidate(t *testing.T) {
	if err := DefaultDiffGateConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, th := range []float64{0, -0.1, 1, 2} {
		if err := (DiffGateConfig{Threshold: th}).Validate(); err == nil {
			t.Errorf("threshold %v accepted", th)
		}
	}
}

// Within-scene frames must pass the default gate; cross-scene frames
// must fail it. This is the temporal-locality property the video gate
// exploits.
func TestDiffGateSeparatesScenes(t *testing.T) {
	cs := classes(t, 4)
	cfg := StreamConfig{
		FPS: 15,
		Segments: []Segment{
			{Regime: imu.Stationary, Frames: 10},
			{Regime: imu.Panning, Frames: 10},
		},
		Perturb: vision.DefaultPerturbation(),
		Seed:    8,
	}
	frames, err := Generate(cfg, cs)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewKeyframeLibrary(DefaultDiffGateConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Push(frames[0].Image, "key", 1)
	samePass, sameN := 0, 0
	crossPass, crossN := 0, 0
	for _, f := range frames[1:] {
		_, ok := g.Match(f.Image)
		// Grade by class: reusing the key's label is correct exactly
		// when the frame shows the same class.
		if f.Class == frames[0].Class {
			sameN++
			if ok {
				samePass++
			}
		} else {
			crossN++
			if ok {
				crossPass++
			}
		}
	}
	if sameN == 0 || crossN == 0 {
		t.Fatal("test stream did not produce both cases")
	}
	if samePass*2 < sameN {
		t.Fatalf("same-class pass rate too low: %d/%d", samePass, sameN)
	}
	if crossPass*4 > crossN {
		t.Fatalf("cross-class pass rate too high: %d/%d", crossPass, crossN)
	}
}
