// Package video provides the video-stream substrate: a synthetic,
// scene-structured frame stream generator and the frame-difference gate
// that exploits the temporal locality inherent in video.
//
// Scene structure is driven by the device's motion regime: while the
// device is stationary or handheld the camera keeps seeing the same
// scene (same class); while walking or panning the scene changes every
// few frames. Every frame carries ground truth (class and scene id), so
// reuse correctness is measurable exactly.
package video

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"approxcache/internal/imu"
	"approxcache/internal/vision"
)

// Frame is one generated video frame with ground truth.
type Frame struct {
	// Index is the frame number within the stream.
	Index int
	// Offset is the frame time relative to stream start.
	Offset time.Duration
	// Image is the rendered frame.
	Image *vision.Image
	// Class is the true object class shown.
	Class int
	// Scene is a monotonically increasing scene-segment id; frames
	// with equal Scene show the same physical scene.
	Scene int
	// Regime is the device motion regime during this frame.
	Regime imu.Regime
}

// Segment is a contiguous stretch of a workload in one motion regime.
type Segment struct {
	// Regime is the motion regime of the segment.
	Regime imu.Regime
	// Frames is the segment length in frames.
	Frames int
}

// StreamConfig parameterizes a synthetic stream.
type StreamConfig struct {
	// FPS is the frame rate. Typical mobile recognition apps sample
	// 10–30 fps.
	FPS int
	// Segments is the motion-regime script.
	Segments []Segment
	// Perturb is the per-frame perturbation applied within a scene.
	Perturb vision.Perturbation
	// SceneHold overrides how many frames a scene lasts in
	// non-stable regimes. Zero selects per-regime defaults
	// (walking 15, panning 8).
	SceneHold int
	// ClassWeights biases which class each new scene shows. Empty
	// means uniform; otherwise it must have one non-negative weight
	// per class with a positive sum. Skewed weights model popular
	// objects (the exhibits everyone photographs), which is what makes
	// peer-to-peer reuse pay off.
	ClassWeights []float64
	// Seed drives all randomness.
	Seed int64
}

// Validate reports whether the configuration is usable.
func (c StreamConfig) Validate() error {
	if c.FPS <= 0 {
		return fmt.Errorf("video: fps must be positive, got %d", c.FPS)
	}
	if len(c.Segments) == 0 {
		return fmt.Errorf("video: stream needs at least one segment")
	}
	for i, s := range c.Segments {
		if s.Frames <= 0 {
			return fmt.Errorf("video: segment %d has non-positive length %d", i, s.Frames)
		}
		switch s.Regime {
		case imu.Stationary, imu.Handheld, imu.Walking, imu.Panning:
		default:
			return fmt.Errorf("video: segment %d has unknown regime %d", i, int(s.Regime))
		}
	}
	if c.SceneHold < 0 {
		return fmt.Errorf("video: scene hold must be non-negative, got %d", c.SceneHold)
	}
	if len(c.ClassWeights) > 0 {
		var sum float64
		for i, w := range c.ClassWeights {
			if w < 0 {
				return fmt.Errorf("video: class weight %d is negative", i)
			}
			sum += w
		}
		if sum <= 0 {
			return fmt.Errorf("video: class weights sum to zero")
		}
	}
	return nil
}

// sceneHold returns how many frames a scene persists in regime r.
func (c StreamConfig) sceneHold(r imu.Regime) int {
	if c.SceneHold > 0 {
		return c.SceneHold
	}
	switch r {
	case imu.Walking:
		return 15
	case imu.Panning:
		return 8
	default:
		return 1 << 30 // scene-stable regimes hold for the segment
	}
}

// Generate renders the stream described by cfg over classes.
func Generate(cfg StreamConfig, classes *vision.ClassSet) ([]Frame, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if classes == nil {
		return nil, fmt.Errorf("video: nil class set")
	}
	if len(cfg.ClassWeights) > 0 && len(cfg.ClassWeights) != classes.NumClasses() {
		return nil, fmt.Errorf("video: %d class weights for %d classes",
			len(cfg.ClassWeights), classes.NumClasses())
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	frameDur := time.Second / time.Duration(cfg.FPS)

	var (
		out       []Frame
		index     int
		scene     = -1
		class     int
		heldSince int
	)
	newScene := func() {
		scene++
		heldSince = index
		// Draw a new class, avoiding an immediate repeat when
		// possible so scene changes are visible.
		if classes.NumClasses() > 1 {
			class = pickClass(rng, cfg.ClassWeights, classes.NumClasses(), class)
		} else {
			class = 0
		}
	}
	newScene()
	for _, seg := range cfg.Segments {
		hold := cfg.sceneHold(seg.Regime)
		// Entering a non-stable segment means the camera starts
		// moving: the scene changes at segment boundaries too.
		if !seg.Regime.SceneStable() {
			newScene()
		}
		for f := 0; f < seg.Frames; f++ {
			if index-heldSince >= hold {
				newScene()
			}
			im, err := classes.Render(class, cfg.Perturb, rng)
			if err != nil {
				return nil, fmt.Errorf("render frame %d: %w", index, err)
			}
			out = append(out, Frame{
				Index:  index,
				Offset: time.Duration(index) * frameDur,
				Image:  im,
				Class:  class,
				Scene:  scene,
				Regime: seg.Regime,
			})
			index++
		}
	}
	return out, nil
}

// pickClass draws the next scene's class, excluding the previous one.
// With weights it samples the renormalized weighted distribution;
// without, it samples uniformly.
func pickClass(rng *rand.Rand, weights []float64, numClasses, exclude int) int {
	if len(weights) == 0 {
		next := rng.Intn(numClasses - 1)
		if next >= exclude {
			next++
		}
		return next
	}
	var sum float64
	for c, w := range weights {
		if c != exclude {
			sum += w
		}
	}
	if sum <= 0 {
		// All remaining mass sits on the excluded class; fall back to
		// uniform over the rest.
		next := rng.Intn(numClasses - 1)
		if next >= exclude {
			next++
		}
		return next
	}
	r := rng.Float64() * sum
	for c, w := range weights {
		if c == exclude {
			continue
		}
		r -= w
		if r <= 0 {
			return c
		}
	}
	// Rounding fell off the end: return the last non-excluded class.
	if exclude == numClasses-1 {
		return numClasses - 2
	}
	return numClasses - 1
}

// ZipfWeights returns numClasses weights with weight(rank k) ∝ 1/k^s.
// s = 0 is uniform; s around 1 gives the heavy skew typical of
// popularity distributions.
func ZipfWeights(numClasses int, s float64) []float64 {
	if numClasses <= 0 {
		return nil
	}
	out := make([]float64, numClasses)
	for k := range out {
		out[k] = 1 / math.Pow(float64(k+1), s)
	}
	return out
}

// DiffGateConfig tunes the frame-difference gate.
type DiffGateConfig struct {
	// Threshold is the maximum mean absolute pixel difference (in
	// [0,1]) against the keyframe for which frames count as "same
	// scene".
	Threshold float64
}

// Validate reports whether the configuration is usable.
func (c DiffGateConfig) Validate() error {
	if c.Threshold <= 0 || c.Threshold >= 1 {
		return fmt.Errorf("video: diff threshold must be in (0,1), got %v", c.Threshold)
	}
	return nil
}

// DefaultDiffGateConfig returns the threshold tuned to the default
// perturbation profile: same-scene jitter passes, scene changes fail.
func DefaultDiffGateConfig() DiffGateConfig {
	return DiffGateConfig{Threshold: 0.13}
}

// Keyframe is one remembered scene anchor with its recognition result.
type Keyframe struct {
	// Image is the anchor frame. It points into a buffer the library
	// owns and recycles: a Keyframe returned by Match may be read until
	// the next Push or Reset on the library, no longer.
	Image *vision.Image
	// Label is the recognition result the anchor carries.
	Label string
	// Confidence is the result's confidence.
	Confidence float64
}

// slot is one stored keyframe with the thumbnail that lets a scan
// discard it without touching its pixels.
type slot struct {
	Keyframe
	thumb vision.Thumb
}

// diff returns the exact vision.MeanAbsDiff between the slot's frame
// and im when that is ≤ bound, and otherwise some value that is not —
// decided from the two thumbnails when they suffice, from a prefix of
// the pixels when that does, from all of them only for a frame that
// (nearly) qualifies. th must be im's thumbnail, or empty.
func (s *slot) diff(im *vision.Image, th *vision.Thumb, bound float64) float64 {
	if s.thumb.Farther(th, bound) {
		return math.Inf(1)
	}
	return vision.MeanAbsDiffBounded(s.Image, im, bound)
}

// KeyframeLibrary is the video locality gate: it remembers the last
// Capacity recognized scenes and answers "is this frame close enough to
// one of them to reuse its result?". A camera panning back to a
// recently seen scene matches its old keyframe directly — without
// feature extraction or inference — which a single last-keyframe gate
// cannot do. KeyframeLibrary is not safe for concurrent use; each
// pipeline owns one.
type KeyframeLibrary struct {
	cfg DiffGateConfig
	// base keeps the configured threshold so SetStrictness scales from
	// the original value, not compounding on itself.
	base   DiffGateConfig
	cap    int
	frames []*slot // newest last
	// free holds displaced and evicted slots; Push copies the incoming
	// frame into one instead of allocating. frames and free together
	// never hold more than cap slots.
	free []*slot
}

// NewKeyframeLibrary builds a library of at most capacity keyframes
// matched under cfg's threshold.
func NewKeyframeLibrary(cfg DiffGateConfig, capacity int) (*KeyframeLibrary, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("video: keyframe capacity must be positive, got %d", capacity)
	}
	return &KeyframeLibrary{cfg: cfg, base: cfg, cap: capacity}, nil
}

// SetStrictness scales the match threshold to scale× its configured
// value: 1 restores the configured gate, smaller values demand frames
// be more alike before a keyframe's result may be reused. Scales
// outside (0, 1] are ignored. Like every library method, the caller
// synchronizes.
func (l *KeyframeLibrary) SetStrictness(scale float64) {
	if scale <= 0 || scale > 1 {
		return
	}
	l.cfg.Threshold = l.base.Threshold * scale
}

// Len returns the number of stored keyframes.
func (l *KeyframeLibrary) Len() int { return len(l.frames) }

// Match returns the best-matching stored keyframe for im (smallest mean
// absolute difference under the threshold; the newest among equals) and
// whether one qualified.
func (l *KeyframeLibrary) Match(im *vision.Image) (Keyframe, bool) {
	var th vision.Thumb
	th.Fill(im)
	kf, m := l.MatchThumb(im, &th)
	return kf, m.Found
}

// MatchStats describes one scan of the library.
type MatchStats struct {
	// Found reports whether a keyframe qualified.
	Found bool
	// Diff is the best keyframe's mean absolute difference from the
	// frame when Found. Otherwise it is the smallest value any pixel
	// comparison returned — above Threshold, and possibly only the bound
	// a prefix of the pixels proved — or +Inf when no pixels were
	// compared.
	Diff float64
	// Threshold is the match threshold in force.
	Threshold float64
	// Exact counts the keyframes whose pixels were compared; the rest
	// were discarded on their thumbnails alone.
	Exact int
}

// MatchThumb is Match for a caller that already holds im's thumbnail
// (vision.CheckFrameThumb or Thumb.Fill on this very frame), reporting
// how the scan went. An empty thumbnail is safe, only slower.
func (l *KeyframeLibrary) MatchThumb(im *vision.Image, th *vision.Thumb) (Keyframe, MatchStats) {
	m := MatchStats{Diff: math.Inf(1), Threshold: l.cfg.Threshold}
	if im == nil {
		return Keyframe{}, m
	}
	best := -1
	bestDiff := l.cfg.Threshold
	for i, s := range l.frames {
		if s.thumb.Farther(th, bestDiff) {
			continue
		}
		m.Exact++
		d := vision.MeanAbsDiffBounded(s.Image, im, bestDiff)
		if d <= bestDiff {
			best, bestDiff = i, d
		}
		m.Diff = min(m.Diff, d)
	}
	if best < 0 {
		return Keyframe{}, m
	}
	m.Found, m.Diff = true, bestDiff
	return l.frames[best].Keyframe, m
}

// Push remembers im with its recognition result, evicting the oldest
// keyframe when full. Any stored keyframe within the match threshold of
// im is displaced — it depicts the same visual scene, and the incoming
// result is fresher evidence. (Keeping a same-scene keyframe with a
// different label would let a stale recognition keep winning matches.)
// The library keeps its own copy of the pixels. Frames without a result
// or without a well-formed pixel buffer are ignored.
func (l *KeyframeLibrary) Push(im *vision.Image, label string, confidence float64) {
	var th vision.Thumb
	th.Fill(im)
	l.PushThumb(im, &th, label, confidence)
}

// PushThumb is Push for a caller that already holds im's thumbnail; see
// MatchThumb.
func (l *KeyframeLibrary) PushThumb(im *vision.Image, th *vision.Thumb, label string, confidence float64) {
	if label == "" || !im.WellFormed() {
		return
	}
	thr := l.cfg.Threshold
	kept := l.frames[:0]
	for _, s := range l.frames {
		if s.diff(im, th, thr) <= thr {
			l.free = append(l.free, s)
		} else {
			kept = append(kept, s)
		}
	}
	if len(kept) == l.cap {
		l.free = append(l.free, kept[0])
		kept = kept[:copy(kept, kept[1:])]
	}
	var s *slot
	if n := len(l.free); n > 0 {
		s, l.free = l.free[n-1], l.free[:n-1]
	} else {
		s = &slot{}
	}
	if s.Image == nil || len(s.Image.Pix) != len(im.Pix) {
		s.Image = vision.NewImage(im.W, im.H)
	}
	s.Image.W, s.Image.H = im.W, im.H
	copy(s.Image.Pix, im.Pix)
	s.Label, s.Confidence, s.thumb = label, confidence, *th
	l.frames = append(kept, s)
}

// Reset clears the library and drops its recycled buffers.
func (l *KeyframeLibrary) Reset() { l.frames, l.free = nil, nil }
