// Package trace composes the vision, video, and imu substrates into
// complete device workloads: a frame stream plus the matching inertial
// sensor stream, with full ground truth. Workloads are described by a
// compact Spec so any experiment input can be regenerated bit-exactly
// from its seed.
package trace

import (
	"fmt"
	"sort"
	"time"

	"approxcache/internal/imu"
	"approxcache/internal/video"
	"approxcache/internal/vision"
)

// Spec fully describes a workload; equal specs generate identical
// workloads.
type Spec struct {
	// Name identifies the workload in reports.
	Name string
	// FPS is the camera frame rate.
	FPS int
	// IMURateHz is the inertial sample rate.
	IMURateHz int
	// NumClasses is the size of the object vocabulary.
	NumClasses int
	// ImageW and ImageH are the frame dimensions.
	ImageW int
	ImageH int
	// Segments is the motion script.
	Segments []video.Segment
	// Hard selects the aggressive perturbation profile.
	Hard bool
	// Seed drives all randomness.
	Seed int64
	// ClassSeed, when non-zero, seeds the class prototypes separately
	// from the frame stream. Devices that share a ClassSeed see the
	// same object vocabulary (required for peer-to-peer reuse) while
	// different Seeds give them independent frame orders.
	ClassSeed int64
	// ClassSkew applies Zipf popularity to scene classes: weight of
	// rank-k class ∝ 1/k^ClassSkew. 0 is uniform; ~1 is the heavy
	// skew of real popularity distributions (everyone photographs the
	// same exhibits), which is what peer reuse feeds on.
	ClassSkew float64
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("trace: spec needs a name")
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
	if err := (video.StreamConfig{FPS: s.FPS, Segments: s.Segments}).Validate(); err != nil {
		return fmt.Errorf("trace: %w", err)
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
		Segments:     spec.Segments,
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
	for _, seg := range spec.Segments {
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

// Standard workload shapes used across the evaluation. All take the
// total frame budget and a seed so experiments can scale them.

// StationaryHeavy models the poster's best case: a user mostly holding
// the camera on a scene (e.g. document or exhibit recognition), with
// brief repositioning walks.
func StationaryHeavy(frames int, seed int64) Spec {
	return standardSpec("stationary-heavy", frames, seed,
		[]imu.Regime{imu.Stationary, imu.Handheld, imu.Walking, imu.Stationary},
		[]int{45, 25, 10, 20})
}

// HandheldMix models casual handheld use with occasional pans.
func HandheldMix(frames int, seed int64) Spec {
	return standardSpec("handheld-mix", frames, seed,
		[]imu.Regime{imu.Handheld, imu.Panning, imu.Handheld, imu.Walking},
		[]int{40, 15, 30, 15})
}

// WalkingTour models a user walking through an environment, pausing at
// points of interest.
func WalkingTour(frames int, seed int64) Spec {
	return standardSpec("walking-tour", frames, seed,
		[]imu.Regime{imu.Walking, imu.Stationary, imu.Walking, imu.Handheld},
		[]int{35, 15, 35, 15})
}

// PanningSweep models continuous camera sweeps (the cache's hardest
// case: scenes change every few frames).
func PanningSweep(frames int, seed int64) Spec {
	return standardSpec("panning-sweep", frames, seed,
		[]imu.Regime{imu.Panning, imu.Handheld},
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
func standardSpec(name string, frames int, seed int64, regimes []imu.Regime, pcts []int) Spec {
	segs := make([]video.Segment, len(regimes))
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
		segs[i] = video.Segment{Regime: regimes[i], Frames: n}
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
