package imu

import (
	"fmt"
	"math"
	"time"
)

// WindowFault classifies what is wrong with an IMU sample window. The
// motion gate trusts window statistics to decide "the device has not
// moved"; a malformed window can fake exactly that (a stuck sensor has
// zero variance, a saturated one a constant magnitude), so the pipeline
// checks every window before feeding the detector and routes faulty
// ones past the inertial gate instead.
type WindowFault int

// Window fault classes, ordered roughly by severity.
const (
	// WindowOK: the window is usable.
	WindowOK WindowFault = iota
	// WindowNonFinite: a sample carries NaN or ±Inf readings — corrupt
	// sensor data that would poison every statistic downstream.
	WindowNonFinite
	// WindowNonMonotonic: sample timestamps go backwards.
	WindowNonMonotonic
	// WindowDropout: a gap between consecutive samples exceeds the
	// configured maximum — the sensor stream stalled mid-window.
	WindowDropout
	// WindowStuck: an axis repeats the exact same reading for too many
	// consecutive samples — a frozen sensor reports zero variance and
	// fakes "stationary".
	WindowStuck
	// WindowSaturated: readings sit at or beyond the sensor's physical
	// range — clipped data understates motion.
	WindowSaturated
	// WindowClockSkew: the window spans an implausibly long interval or
	// starts with a negative offset — the sensor clock and the frame
	// clock disagree.
	WindowClockSkew
)

// String returns the fault name.
func (f WindowFault) String() string {
	switch f {
	case WindowOK:
		return "ok"
	case WindowNonFinite:
		return "non-finite"
	case WindowNonMonotonic:
		return "non-monotonic"
	case WindowDropout:
		return "dropout"
	case WindowStuck:
		return "stuck"
	case WindowSaturated:
		return "saturated"
	case WindowClockSkew:
		return "clock-skew"
	default:
		return fmt.Sprintf("WindowFault(%d)", int(f))
	}
}

// GuardConfig tunes the IMU window guard.
type GuardConfig struct {
	// MaxGap is the largest tolerated interval between consecutive
	// samples before the window counts as a dropout. Zero disables the
	// check.
	MaxGap time.Duration
	// MaxAccel is the accelerometer's plausible per-axis range, m/s².
	// Readings at or beyond it count as saturated. Zero disables.
	MaxAccel float64
	// MaxGyro is the gyroscope's plausible per-axis range, rad/s.
	// Readings at or beyond it count as saturated. Zero disables.
	MaxGyro float64
	// StuckRun is how many consecutive bit-identical readings on one
	// axis flag a frozen sensor. Zero disables the check.
	StuckRun int
	// MaxSpan is the longest plausible window duration; a window
	// spanning more (or starting at a negative offset) indicates clock
	// skew between the sensor and frame timelines. Zero disables.
	MaxSpan time.Duration
}

// DefaultGuardConfig returns thresholds sized to smartphone IMU
// hardware: 50–200 Hz streams (a 100 ms gap is ≥ 5 missed samples),
// ±8 g accelerometers, ±2000 °/s gyroscopes.
func DefaultGuardConfig() GuardConfig {
	return GuardConfig{
		MaxGap:   100 * time.Millisecond,
		MaxAccel: 78.5, // ±8 g
		MaxGyro:  34.9, // ±2000 °/s
		StuckRun: 25,
		MaxSpan:  10 * time.Second,
	}
}

// Validate reports whether the configuration is usable.
func (c GuardConfig) Validate() error {
	if c.MaxGap < 0 {
		return fmt.Errorf("imu: guard MaxGap must be non-negative, got %v", c.MaxGap)
	}
	if c.MaxAccel < 0 || c.MaxGyro < 0 {
		return fmt.Errorf("imu: guard sensor ranges must be non-negative")
	}
	if c.StuckRun < 0 {
		return fmt.Errorf("imu: guard StuckRun must be non-negative, got %d", c.StuckRun)
	}
	if c.MaxSpan < 0 {
		return fmt.Errorf("imu: guard MaxSpan must be non-negative, got %v", c.MaxSpan)
	}
	return nil
}

// CheckWindow inspects one frame's IMU window and returns the most
// severe fault class found anywhere in it, or WindowOK. An empty window
// is WindowOK: "no samples arrived" is a legitimate state the detector
// already treats conservatively.
//
// It is one pass that records what each class needs to know of the
// whole window — each sensor's largest magnitude (which also tells a
// non-finite reading), whether a timestamp goes back, the longest step,
// the longest run of equal readings on any axis — and then names the
// first class, in severity order, that the record shows. Which classes
// occur does not depend on the order they are looked for in, so this is
// exactly checking each class over the whole window in turn.
func CheckWindow(win []Sample, cfg GuardConfig) WindowFault {
	if len(win) == 0 {
		return WindowOK
	}
	var (
		// The largest |reading| of each sensor, as its bit pattern: the
		// patterns of non-negative floats order as their values do, and
		// every NaN's lies above +Inf's.
		peakAccel = peak(0, &win[0].Accel)
		peakGyro  = peak(0, &win[0].Gyro)
		back      bool
		maxStep   = time.Duration(math.MinInt64)
		// The run of equal readings ending at the sample on each axis,
		// and the longest run of two or more any axis has had: 0 while
		// no two consecutive readings are equal. The axes are spelled
		// out rather than looped over, which keeps the runs in registers.
		ra0, ra1, ra2, rg0, rg1, rg2 = 1, 1, 1, 1, 1, 1
		longest                      int
	)
	for i := 1; i < len(win); i++ {
		s, p := &win[i], &win[i-1]
		peakAccel = peak(peakAccel, &s.Accel)
		peakGyro = peak(peakGyro, &s.Gyro)
		if s.Offset < p.Offset {
			back = true
		}
		maxStep = max(maxStep, s.Offset-p.Offset)
		ra0, longest = repeat(ra0, longest, s.Accel[0] == p.Accel[0])
		ra1, longest = repeat(ra1, longest, s.Accel[1] == p.Accel[1])
		ra2, longest = repeat(ra2, longest, s.Accel[2] == p.Accel[2])
		rg0, longest = repeat(rg0, longest, s.Gyro[0] == p.Gyro[0])
		rg1, longest = repeat(rg1, longest, s.Gyro[1] == p.Gyro[1])
		rg2, longest = repeat(rg2, longest, s.Gyro[2] == p.Gyro[2])
	}
	switch {
	case max(peakAccel, peakGyro) >= math.Float64bits(math.Inf(1)):
		return WindowNonFinite
	case back:
		return WindowNonMonotonic
	case cfg.MaxGap > 0 && maxStep > cfg.MaxGap:
		return WindowDropout
	// A frozen sensor repeats a reading bit for bit; real ones carry
	// noise in the low-order bits.
	case cfg.StuckRun > 0 && longest >= cfg.StuckRun:
		return WindowStuck
	case cfg.MaxAccel > 0 && math.Float64frombits(peakAccel) >= cfg.MaxAccel,
		cfg.MaxGyro > 0 && math.Float64frombits(peakGyro) >= cfg.MaxGyro:
		return WindowSaturated
	case cfg.MaxSpan > 0 && (win[0].Offset < 0 || win[len(win)-1].Offset-win[0].Offset > cfg.MaxSpan):
		return WindowClockSkew
	}
	return WindowOK
}

// peak returns p raised to the bit pattern of the largest of |v[0]|,
// |v[1]| and |v[2]|.
func peak(p uint64, v *[3]float64) uint64 {
	return max(p, math.Float64bits(math.Abs(v[0])), math.Float64bits(math.Abs(v[1])), math.Float64bits(math.Abs(v[2])))
}

// repeat extends an axis's run of equal readings by one sample, raising
// longest to it, if the reading repeats, and restarts it at 1 if not.
func repeat(run, longest int, same bool) (int, int) {
	if same {
		run++
		return run, max(longest, run)
	}
	return 1, longest
}
