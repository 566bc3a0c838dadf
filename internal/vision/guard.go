package vision

import (
	"fmt"
	"math"
)

// FrameFault classifies what is wrong with a camera frame. The reuse
// gates assume well-formed frames: a nil or dimension-less frame cannot
// be processed at all, and an all-black / near-uniform frame (lens
// covered, sensor fault) carries no scene information — caching its
// features would cluster every such frame together and serve one stale
// label for all of them.
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
	case FrameLowEntropy:
		return "low-entropy"
	default:
		return fmt.Sprintf("FrameFault(%d)", int(f))
	}
}

// Structural reports whether the fault makes the frame unprocessable
// (as opposed to a degraded-but-real capture like a covered lens).
func (f FrameFault) Structural() bool {
	return f == FrameNil || f == FrameEmpty
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
// is those block sums. The low-entropy check needs the sum of squares,
// which the pass does not take: the block sums bound it from below
// (Thumb.squareBound), and the verdict only grows more lenient as it
// grows, so only a frame whose blocks alone do not show enough contrast
// — a covered lens, a fine texture — pays a second pass for the exact
// sum.
func CheckFrameThumb(im *Image, cfg FrameGuardConfig, th *Thumb) FrameFault {
	if im == nil {
		*th = Thumb{}
		return FrameNil
	}
	if !im.WellFormed() {
		*th = Thumb{}
		return FrameEmpty
	}
	sum, n := th.fill(im), len(im.Pix)
	if entropyVerdict(sum, th.squareBound(), n, cfg) == FrameOK {
		return FrameOK
	}
	return entropyVerdict(sum, sumSquares(im.Pix), n, cfg)
}

// sumSquares returns Σp² over the pixels.
func sumSquares(pix []uint8) int {
	var s int
	for _, p := range pix {
		s += int(p) * int(p)
	}
	return s
}

// entropyVerdict applies the low-entropy check to a frame's pixel sum
// and sum of squares, both in 8-bit levels: the standard deviation in
// intensity units is √(n·Σp² − (Σp)²) / (255·n).
func entropyVerdict(sum, sumSq, pixels int, cfg FrameGuardConfig) FrameFault {
	if cfg.MinStdDev > 0 {
		n := float64(pixels)
		spread := max(n*float64(sumSq)-float64(sum)*float64(sum), 0)
		if math.Sqrt(spread)/(MaxLevel*n) < cfg.MinStdDev {
			return FrameLowEntropy
		}
	}
	return FrameOK
}
