// Package trace composes the vision, video, and imu substrates into
// complete device workloads: a frame stream plus the matching inertial
// sensor stream, with full ground truth. Workloads are described by a
// compact, JSON-serializable Spec so any experiment input can be saved,
// inspected, and regenerated bit-exactly from its seed.
package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"approxcache/internal/imu"
	"approxcache/internal/video"
	"approxcache/internal/vision"
)

// SegmentSpec is one motion-regime stretch of a workload.
type SegmentSpec struct {
	// Regime names the motion regime: "stationary", "handheld",
	// "walking", or "panning".
	Regime string `json:"regime"`
	// Frames is the segment length in frames.
	Frames int `json:"frames"`
}

// Spec fully describes a workload; equal specs generate identical
// workloads.
type Spec struct {
	// Name identifies the workload in reports.
	Name string `json:"name"`
	// FPS is the camera frame rate.
	FPS int `json:"fps"`
	// IMURateHz is the inertial sample rate.
	IMURateHz int `json:"imuRateHz"`
	// NumClasses is the size of the object vocabulary.
	NumClasses int `json:"numClasses"`
	// ImageW and ImageH are the frame dimensions.
	ImageW int `json:"imageW"`
	ImageH int `json:"imageH"`
	// Segments is the motion script.
	Segments []SegmentSpec `json:"segments"`
	// Hard selects the aggressive perturbation profile.
	Hard bool `json:"hard,omitempty"`
	// Seed drives all randomness.
	Seed int64 `json:"seed"`
	// ClassSeed, when non-zero, seeds the class prototypes separately
	// from the frame stream. Devices that share a ClassSeed see the
	// same object vocabulary (required for peer-to-peer reuse) while
	// different Seeds give them independent frame orders.
	ClassSeed int64 `json:"classSeed,omitempty"`
	// ClassSkew applies Zipf popularity to scene classes: weight of
	// rank-k class ∝ 1/k^ClassSkew. 0 is uniform; ~1 is the heavy
	// skew of real popularity distributions (everyone photographs the
	// same exhibits), which is what peer reuse feeds on.
	ClassSkew float64 `json:"classSkew,omitempty"`
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("trace: spec needs a name")
	}
	if s.FPS <= 0 {
		return fmt.Errorf("trace: fps must be positive, got %d", s.FPS)
	}
	if s.IMURateHz <= 0 {
		return fmt.Errorf("trace: imu rate must be positive, got %d", s.IMURateHz)
	}
	if s.NumClasses <= 0 {
		return fmt.Errorf("trace: numClasses must be positive, got %d", s.NumClasses)
	}
	if s.ImageW <= 0 || s.ImageH <= 0 {
		return fmt.Errorf("trace: image size must be positive, got %dx%d", s.ImageW, s.ImageH)
	}
	if len(s.Segments) == 0 {
		return fmt.Errorf("trace: spec needs at least one segment")
	}
	for i, seg := range s.Segments {
		if seg.Frames <= 0 {
			return fmt.Errorf("trace: segment %d has non-positive length", i)
		}
		if _, err := parseRegime(seg.Regime); err != nil {
			return fmt.Errorf("trace: segment %d: %w", i, err)
		}
	}
	if s.ClassSkew < 0 {
		return fmt.Errorf("trace: class skew must be non-negative, got %v", s.ClassSkew)
	}
	return nil
}

// TotalFrames returns the workload length in frames.
func (s Spec) TotalFrames() int {
	total := 0
	for _, seg := range s.Segments {
		total += seg.Frames
	}
	return total
}

// Duration returns the workload length in time.
func (s Spec) Duration() time.Duration {
	if s.FPS <= 0 {
		return 0
	}
	return time.Duration(s.TotalFrames()) * time.Second / time.Duration(s.FPS)
}

// parseRegime maps a wire regime name to its imu.Regime.
func parseRegime(name string) (imu.Regime, error) {
	switch name {
	case "stationary":
		return imu.Stationary, nil
	case "handheld":
		return imu.Handheld, nil
	case "walking":
		return imu.Walking, nil
	case "panning":
		return imu.Panning, nil
	default:
		return 0, fmt.Errorf("unknown regime %q", name)
	}
}

// Workload is a fully generated device input.
type Workload struct {
	// Spec is the generating description.
	Spec Spec
	// Classes is the class set frames were rendered from.
	Classes *vision.ClassSet
	// Frames is the video stream with ground truth.
	Frames []video.Frame
	// IMU is the matching inertial stream, covering the same
	// duration and regime script.
	IMU []imu.Sample
}

// IMUWindow returns the IMU samples in (from, to], the samples a
// pipeline would have received between two frames. IMU is sorted by
// offset, so the window is a sub-slice found by binary search: it
// aliases w.IMU (capped, so an append cannot reach the next sample) and
// is for reading only. An empty window is nil.
func (w *Workload) IMUWindow(from, to time.Duration) []imu.Sample {
	lo := sort.Search(len(w.IMU), func(i int) bool { return w.IMU[i].Offset > from })
	hi := sort.Search(len(w.IMU), func(i int) bool { return w.IMU[i].Offset > to })
	if lo >= hi {
		return nil
	}
	return w.IMU[lo:hi:hi]
}

// Generate renders the workload described by spec.
func Generate(spec Spec) (*Workload, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	classSeed := spec.ClassSeed
	if classSeed == 0 {
		classSeed = spec.Seed
	}
	classes, err := vision.NewClassSet(spec.NumClasses, spec.ImageW, spec.ImageH, classSeed)
	if err != nil {
		return nil, fmt.Errorf("class set: %w", err)
	}

	segs := make([]video.Segment, len(spec.Segments))
	for i, s := range spec.Segments {
		r, err := parseRegime(s.Regime)
		if err != nil {
			return nil, err
		}
		segs[i] = video.Segment{Regime: r, Frames: s.Frames}
	}
	perturb := vision.DefaultPerturbation()
	if spec.Hard {
		perturb = vision.HardPerturbation()
	}
	var weights []float64
	if spec.ClassSkew > 0 {
		weights = video.ZipfWeights(spec.NumClasses, spec.ClassSkew)
	}
	frames, err := video.Generate(video.StreamConfig{
		FPS:          spec.FPS,
		Segments:     segs,
		Perturb:      perturb,
		ClassWeights: weights,
		Seed:         spec.Seed + 1,
	}, classes)
	if err != nil {
		return nil, fmt.Errorf("video: %w", err)
	}

	gen, err := imu.NewGenerator(spec.IMURateHz, spec.Seed+2)
	if err != nil {
		return nil, fmt.Errorf("imu: %w", err)
	}
	var samples []imu.Sample
	frameDur := time.Second / time.Duration(spec.FPS)
	offset := time.Duration(0)
	for _, seg := range segs {
		segDur := time.Duration(seg.Frames) * frameDur
		ss, err := gen.Generate(seg.Regime, offset, segDur)
		if err != nil {
			return nil, fmt.Errorf("imu segment: %w", err)
		}
		samples = append(samples, ss...)
		offset += segDur
	}

	return &Workload{Spec: spec, Classes: classes, Frames: frames, IMU: samples}, nil
}

// EncodeSpec serializes spec to JSON.
func EncodeSpec(spec Spec) ([]byte, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(spec, "", "  ")
}

// DecodeSpec parses and validates a JSON spec.
func DecodeSpec(data []byte) (Spec, error) {
	var spec Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return Spec{}, fmt.Errorf("trace: parse spec: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// Standard workload shapes used across the evaluation. All take the
// total frame budget and a seed so experiments can scale them.

// StationaryHeavy models the poster's best case: a user mostly holding
// the camera on a scene (e.g. document or exhibit recognition), with
// brief repositioning walks.
func StationaryHeavy(frames int, seed int64) Spec {
	return standardSpec("stationary-heavy", frames, seed,
		[]string{"stationary", "handheld", "walking", "stationary"},
		[]int{45, 25, 10, 20})
}

// HandheldMix models casual handheld use with occasional pans.
func HandheldMix(frames int, seed int64) Spec {
	return standardSpec("handheld-mix", frames, seed,
		[]string{"handheld", "panning", "handheld", "walking"},
		[]int{40, 15, 30, 15})
}

// WalkingTour models a user walking through an environment, pausing at
// points of interest.
func WalkingTour(frames int, seed int64) Spec {
	return standardSpec("walking-tour", frames, seed,
		[]string{"walking", "stationary", "walking", "handheld"},
		[]int{35, 15, 35, 15})
}

// PanningSweep models continuous camera sweeps (the cache's hardest
// case: scenes change every few frames).
func PanningSweep(frames int, seed int64) Spec {
	return standardSpec("panning-sweep", frames, seed,
		[]string{"panning", "handheld"},
		[]int{70, 30})
}

// StandardSpecs returns the four canonical workloads at the given frame
// budget.
func StandardSpecs(frames int, seed int64) []Spec {
	return []Spec{
		StationaryHeavy(frames, seed),
		HandheldMix(frames, seed+100),
		WalkingTour(frames, seed+200),
		PanningSweep(frames, seed+300),
	}
}

// standardSpec splits frames across regimes by percentage; the last
// segment absorbs rounding so the total is exact.
func standardSpec(name string, frames int, seed int64, regimes []string, pcts []int) Spec {
	segs := make([]SegmentSpec, len(regimes))
	used := 0
	for i := range regimes {
		n := frames * pcts[i] / 100
		if n < 1 {
			n = 1
		}
		if i == len(regimes)-1 {
			n = frames - used
			if n < 1 {
				n = 1
			}
		}
		segs[i] = SegmentSpec{Regime: regimes[i], Frames: n}
		used += n
	}
	return Spec{
		Name:       name,
		FPS:        15,
		IMURateHz:  100,
		NumClasses: 8,
		ImageW:     48,
		ImageH:     48,
		Segments:   segs,
		Seed:       seed,
	}
}
