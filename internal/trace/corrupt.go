// Deterministic device-input corruptors. Each function takes a healthy
// IMU window or frame and returns a corrupted copy reproducing one
// real-world sensor failure mode, so chaos experiments and guard tests
// can inject exactly the fault class they want to measure. Inputs are
// never mutated; all randomness comes from the caller's seeded rng.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"approxcache/internal/imu"
	"approxcache/internal/vision"
)

// IMUFault selects an IMU window corruption.
type IMUFault int

// Supported IMU fault injections, mirroring imu's guard classes.
const (
	// IMUDropout removes the middle of the window, leaving a gap.
	IMUDropout IMUFault = iota + 1
	// IMUStuck freezes one axis at its first reading (a hung driver).
	IMUStuck
	// IMUSaturate clips readings to far beyond the sensor range.
	IMUSaturate
	// IMUNonMonotonic swaps timestamps so they go backwards.
	IMUNonMonotonic
	// IMUClockSkew shifts all offsets back before zero (sensor clock
	// disagreeing with the frame clock).
	IMUClockSkew
	// IMUNonFinite plants a NaN reading (corrupt HAL buffer).
	IMUNonFinite
)

// String returns the fault name.
func (f IMUFault) String() string {
	switch f {
	case IMUDropout:
		return "imu-dropout"
	case IMUStuck:
		return "imu-stuck"
	case IMUSaturate:
		return "imu-saturated"
	case IMUNonMonotonic:
		return "imu-non-monotonic"
	case IMUClockSkew:
		return "imu-clock-skew"
	case IMUNonFinite:
		return "imu-non-finite"
	default:
		return fmt.Sprintf("IMUFault(%d)", int(f))
	}
}

// CorruptIMUWindow returns a corrupted copy of win under fault. Windows
// too small to express the fault are returned as (copied) is.
func CorruptIMUWindow(win []imu.Sample, fault IMUFault, rng *rand.Rand) []imu.Sample {
	out := make([]imu.Sample, len(win))
	copy(out, win)
	if len(out) == 0 {
		return out
	}
	switch fault {
	case IMUDropout:
		if len(out) < 4 {
			return out
		}
		// Cut the middle half and close ranks: the two halves stay in
		// order but a large timestamp gap remains between them.
		q := len(out) / 4
		out = append(out[:q], out[len(out)-q:]...)
	case IMUStuck:
		ax := rng.Intn(3)
		v := out[0].Accel[ax]
		for i := range out {
			out[i].Accel[ax] = v
		}
	case IMUSaturate:
		// Pin readings just past full scale with a little per-sample
		// ripple so the guard sees saturation, not a frozen axis.
		for i := range out {
			jit := float64(i%9) * 0.01
			for ax := 0; ax < 3; ax++ {
				out[i].Accel[ax] = math.Copysign(100+jit, out[i].Accel[ax])
				out[i].Gyro[ax] = math.Copysign(50+jit, out[i].Gyro[ax])
			}
		}
	case IMUNonMonotonic:
		if len(out) < 2 {
			return out
		}
		i := 1 + rng.Intn(len(out)-1)
		out[i].Offset = out[i-1].Offset - 5*time.Millisecond
	case IMUClockSkew:
		for i := range out {
			out[i].Offset -= time.Hour
		}
	case IMUNonFinite:
		out[rng.Intn(len(out))].Gyro[rng.Intn(3)] = math.NaN()
	}
	return out
}

// FrameFault selects a camera frame corruption.
type FrameFault int

// Supported frame fault injections.
const (
	// FrameBlack replaces the frame with an all-black capture (covered
	// lens, failed exposure).
	FrameBlack FrameFault = iota + 1
	// FrameFlat replaces the frame with a uniform mid-gray (sensor
	// readout fault).
	FrameFlat
)

// String returns the fault name.
func (f FrameFault) String() string {
	switch f {
	case FrameBlack:
		return "frame-black"
	case FrameFlat:
		return "frame-flat"
	default:
		return fmt.Sprintf("FrameFault(%d)", int(f))
	}
}

// CorruptFrame returns a corrupted copy of im under fault.
func CorruptFrame(im *vision.Image, fault FrameFault) *vision.Image {
	out := im.Clone()
	switch fault {
	case FrameBlack:
		clear(out.Pix)
	case FrameFlat:
		for i := range out.Pix {
			out.Pix[i] = 128
		}
	}
	return out
}
