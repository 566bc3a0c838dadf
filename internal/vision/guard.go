package vision

import (
	"fmt"
	"math"
)

// FrameFault classifies what is wrong with a camera frame. The reuse
// gates assume well-formed frames: a nil or dimension-less frame cannot
// be processed at all, a NaN pixel poisons every feature downstream,
// and an all-black / near-uniform frame (lens covered, sensor fault)
// carries no scene information — caching its features would cluster
// every such frame together and serve one stale label for all of them.
type FrameFault int

// Frame fault classes.
const (
	// FrameOK: the frame is usable.
	FrameOK FrameFault = iota
	// FrameNil: the frame pointer is nil.
	FrameNil
	// FrameEmpty: zero dimensions or a pixel buffer that does not match
	// them.
	FrameEmpty
	// FrameNonFinite: a pixel is NaN or ±Inf.
	FrameNonFinite
	// FrameLowEntropy: the frame is (near-)uniform — all-black, all-
	// white, or otherwise informationless.
	FrameLowEntropy
)

// String returns the fault name.
func (f FrameFault) String() string {
	switch f {
	case FrameOK:
		return "ok"
	case FrameNil:
		return "nil"
	case FrameEmpty:
		return "empty"
	case FrameNonFinite:
		return "non-finite"
	case FrameLowEntropy:
		return "low-entropy"
	default:
		return fmt.Sprintf("FrameFault(%d)", int(f))
	}
}

// Structural reports whether the fault makes the frame unprocessable
// (as opposed to a degraded-but-real capture like a covered lens).
func (f FrameFault) Structural() bool {
	return f == FrameNil || f == FrameEmpty || f == FrameNonFinite
}

// FrameGuardConfig tunes the frame guard.
type FrameGuardConfig struct {
	// MinStdDev is the minimum pixel standard deviation for a frame to
	// count as carrying scene information. Zero disables the
	// low-entropy check.
	MinStdDev float64
}

// DefaultFrameGuardConfig returns the standard threshold: well below
// any rendered scene's contrast (~0.2 for the synthetic class set) but
// above sensor noise on a covered lens.
func DefaultFrameGuardConfig() FrameGuardConfig {
	return FrameGuardConfig{MinStdDev: 0.01}
}

// Validate reports whether the configuration is usable.
func (c FrameGuardConfig) Validate() error {
	if c.MinStdDev < 0 {
		return fmt.Errorf("vision: guard MinStdDev must be non-negative, got %v", c.MinStdDev)
	}
	return nil
}

// CheckFrame inspects one frame and returns the first fault found, or
// FrameOK. It is CheckFrameThumb without a use for the thumbnail.
func CheckFrame(im *Image, cfg FrameGuardConfig) FrameFault {
	var th Thumb
	return CheckFrameThumb(im, cfg, &th)
}

// CheckFrameThumb is the engine's one pass over a frame's pixels, made
// by the first stage that needs to read them (a frame the inertial gate
// answers is never passed here): it returns the frame's fault verdict
// and leaves the frame's block-sum thumbnail in th (empty when the frame
// has no well-formed pixel buffer) for the video gate, whose thumbnail
// bound spares most exact diffs, and for the extractor, whose 8×8 grid
// is those block sums. The pass costs about as much as one exact frame
// diff.
//
// Non-finite pixels are detected through the sum of squares rather than
// pixel by pixel: p*p is NaN or +Inf for such a pixel and adding
// non-negative terms can never bring the sum back to a finite value.
// Finite pixels whose squares overflow look the same, so a non-finite
// sum falls back to the per-pixel scan before anything is decided.
func CheckFrameThumb(im *Image, cfg FrameGuardConfig, th *Thumb) FrameFault {
	if im == nil {
		*th = Thumb{}
		return FrameNil
	}
	if !im.WellFormed() {
		*th = Thumb{}
		return FrameEmpty
	}
	sum, sumSq := th.fill(im)
	if math.IsNaN(sumSq) || math.IsInf(sumSq, 0) {
		return checkPixels(im, cfg)
	}
	return entropyVerdict(sum, sumSq, len(im.Pix), cfg)
}

// checkPixels is the pixel-by-pixel scan of a well-formed frame.
func checkPixels(im *Image, cfg FrameGuardConfig) FrameFault {
	var sum, sumSq float64
	for _, p := range im.Pix {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return FrameNonFinite
		}
		sum += p
		sumSq += p * p
	}
	return entropyVerdict(sum, sumSq, len(im.Pix), cfg)
}

// entropyVerdict applies the low-entropy check to a frame's pixel sums.
func entropyVerdict(sum, sumSq float64, pixels int, cfg FrameGuardConfig) FrameFault {
	if cfg.MinStdDev > 0 {
		n := float64(pixels)
		mean := sum / n
		variance := sumSq/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		if math.Sqrt(variance) < cfg.MinStdDev {
			return FrameLowEntropy
		}
	}
	return FrameOK
}
