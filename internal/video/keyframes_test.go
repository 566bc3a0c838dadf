package video

import (
	"fmt"
	"math"
	"testing"

	"approxcache/internal/vision"
)

func flatImage(w, h int, v float64) *vision.Image {
	im := vision.NewImage(w, h)
	for i := range im.Pix {
		im.Pix[i] = v
	}
	return im
}

func TestNewKeyframeLibraryValidation(t *testing.T) {
	if _, err := NewKeyframeLibrary(DiffGateConfig{}, 4); err == nil {
		t.Fatal("bad gate config accepted")
	}
	if _, err := NewKeyframeLibrary(DefaultDiffGateConfig(), 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
	l, err := NewKeyframeLibrary(DefaultDiffGateConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 {
		t.Fatal("fresh library not empty")
	}
}

func TestKeyframeMatchEmptyAndNil(t *testing.T) {
	l, err := NewKeyframeLibrary(DefaultDiffGateConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Match(flatImage(8, 8, 0.5)); ok {
		t.Fatal("empty library matched")
	}
	l.Push(flatImage(8, 8, 0.5), "a", 1)
	if _, ok := l.Match(nil); ok {
		t.Fatal("nil image matched")
	}
}

func TestKeyframePushIgnoresInvalid(t *testing.T) {
	l, err := NewKeyframeLibrary(DefaultDiffGateConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	l.Push(nil, "a", 1)
	l.Push(flatImage(8, 8, 0.5), "", 1)
	if l.Len() != 0 {
		t.Fatalf("invalid pushes stored: %d", l.Len())
	}
}

func TestKeyframeMatchPicksClosest(t *testing.T) {
	l, err := NewKeyframeLibrary(DefaultDiffGateConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	l.Push(flatImage(8, 8, 0.30), "dark", 1)
	l.Push(flatImage(8, 8, 0.40), "mid", 1)
	kf, ok := l.Match(flatImage(8, 8, 0.41))
	if !ok || kf.Label != "mid" {
		t.Fatalf("match = %+v ok=%v", kf, ok)
	}
	// Outside threshold of everything: no match.
	if _, ok := l.Match(flatImage(8, 8, 0.99)); ok {
		t.Fatal("far frame matched")
	}
}

// TestMatchThumbStats: a scan reports the best difference against the
// threshold and how many keyframes' pixels it read.
func TestMatchThumbStats(t *testing.T) {
	l, err := NewKeyframeLibrary(DefaultDiffGateConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	l.Push(flatImage(16, 16, 0.20), "dark", 1)
	l.Push(flatImage(16, 16, 0.40), "mid", 1)
	// A fine checkerboard with the mid keyframe's cell means: the
	// thumbnails cannot rule that keyframe out, the pixels can.
	checker := flatImage(16, 16, 0.2)
	for i := range checker.Pix {
		if (i/16+i%16)%2 == 0 {
			checker.Pix[i] = 0.6
		}
	}
	for _, tc := range []struct {
		im    *vision.Image
		found bool
		diff  float64
		exact int
	}{
		{flatImage(16, 16, 0.31), true, 0.09, 2},
		{checker, false, 0.2, 1},
		{flatImage(16, 16, 0.99), false, math.Inf(1), 0},
	} {
		var th vision.Thumb
		th.Fill(tc.im)
		_, m := l.MatchThumb(tc.im, &th)
		if m.Found != tc.found || math.Abs(m.Diff-tc.diff) > 1e-9 && !math.IsInf(tc.diff, 1) ||
			math.IsInf(tc.diff, 1) != math.IsInf(m.Diff, 1) || m.Exact != tc.exact || m.Threshold != DefaultDiffGateConfig().Threshold {
			t.Errorf("MatchThumb = %+v, want found %v diff %v exact %d", m, tc.found, tc.diff, tc.exact)
		}
	}
}

func TestKeyframeEvictsOldest(t *testing.T) {
	l, err := NewKeyframeLibrary(DefaultDiffGateConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct scenes (well past the 0.13 threshold apart).
	l.Push(flatImage(8, 8, 0.10), "a", 1)
	l.Push(flatImage(8, 8, 0.50), "b", 1)
	l.Push(flatImage(8, 8, 0.90), "c", 1)
	if l.Len() != 2 {
		t.Fatalf("len = %d", l.Len())
	}
	if _, ok := l.Match(flatImage(8, 8, 0.10)); ok {
		t.Fatal("oldest keyframe survived eviction")
	}
	if kf, ok := l.Match(flatImage(8, 8, 0.50)); !ok || kf.Label != "b" {
		t.Fatal("recent keyframe lost")
	}
}

func TestKeyframeDisplacesSameScene(t *testing.T) {
	l, err := NewKeyframeLibrary(DefaultDiffGateConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	l.Push(flatImage(8, 8, 0.50), "a", 0.8)
	l.Push(flatImage(8, 8, 0.51), "a", 0.9) // near-duplicate, same label
	if l.Len() != 1 {
		t.Fatalf("duplicate stored: len = %d", l.Len())
	}
	kf, ok := l.Match(flatImage(8, 8, 0.51))
	if !ok || kf.Confidence != 0.9 {
		t.Fatalf("refresh did not update: %+v", kf)
	}
	// Same scene, different label: the fresh result DISPLACES the
	// stale keyframe — otherwise an outdated recognition keeps
	// winning matches for this scene.
	l.Push(flatImage(8, 8, 0.50), "b", 1)
	if l.Len() != 1 {
		t.Fatalf("stale keyframe kept: len = %d", l.Len())
	}
	kf, ok = l.Match(flatImage(8, 8, 0.50))
	if !ok || kf.Label != "b" {
		t.Fatalf("stale label survived: %+v", kf)
	}
}

func TestKeyframeRefreshKeepsEntryAliveLonger(t *testing.T) {
	l, err := NewKeyframeLibrary(DefaultDiffGateConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	l.Push(flatImage(8, 8, 0.10), "a", 1)
	l.Push(flatImage(8, 8, 0.50), "b", 1)
	// Refresh "a": it becomes newest, so pushing "c" evicts "b".
	l.Push(flatImage(8, 8, 0.10), "a", 1)
	l.Push(flatImage(8, 8, 0.90), "c", 1)
	if _, ok := l.Match(flatImage(8, 8, 0.10)); !ok {
		t.Fatal("refreshed keyframe evicted")
	}
	if _, ok := l.Match(flatImage(8, 8, 0.50)); ok {
		t.Fatal("stale keyframe survived")
	}
}

func TestKeyframePushIsCopied(t *testing.T) {
	l, err := NewKeyframeLibrary(DefaultDiffGateConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	im := flatImage(8, 8, 0.5)
	l.Push(im, "a", 1)
	for i := range im.Pix {
		im.Pix[i] = 0 // mutate caller's image
	}
	if _, ok := l.Match(flatImage(8, 8, 0.5)); !ok {
		t.Fatal("library aliases caller's image")
	}
}

func TestKeyframeReset(t *testing.T) {
	l, err := NewKeyframeLibrary(DefaultDiffGateConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	l.Push(flatImage(8, 8, 0.5), "a", 1)
	l.Reset()
	if l.Len() != 0 {
		t.Fatal("reset did not clear")
	}
}

// A capacity-K library remembers K distinct scenes; a pan cycle over K
// scenes then hits every revisit, while a single-keyframe gate misses
// them all.
func TestKeyframeLibraryBeatsSingleKeyOnPanCycle(t *testing.T) {
	scenes := []*vision.Image{
		flatImage(8, 8, 0.10),
		flatImage(8, 8, 0.40),
		flatImage(8, 8, 0.70),
	}
	lib, err := NewKeyframeLibrary(DefaultDiffGateConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewKeyframeLibrary(DefaultDiffGateConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scenes {
		lib.Push(s, fmt.Sprintf("s%d", i), 1)
		single.Push(s, fmt.Sprintf("s%d", i), 1)
	}
	// Second pass over the cycle.
	libHits, singleHits := 0, 0
	for _, s := range scenes {
		if _, ok := lib.Match(s); ok {
			libHits++
		}
		if _, ok := single.Match(s); ok {
			singleHits++
		}
	}
	if libHits != 3 {
		t.Fatalf("library hits = %d, want 3", libHits)
	}
	if singleHits != 1 {
		t.Fatalf("single-key hits = %d, want 1 (only the last scene)", singleHits)
	}
}
