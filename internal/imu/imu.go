// Package imu provides the inertial-sensing substrate: a synthetic
// accelerometer/gyroscope trace generator with distinct motion regimes,
// and the sliding-window motion detector whose output gates the
// cheapest reuse path ("the phone has not moved, so the scene has not
// changed").
//
// Real IMU hardware is not available; the generator reproduces the
// second-order statistics each regime exhibits (noise floors, step
// oscillation while walking, sustained yaw rate while panning), which
// is all the detector consumes — and, unlike real traces, comes with
// exact ground truth so false-reuse rates can be measured.
package imu

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Sample is one inertial reading. Accel is linear acceleration in m/s²
// (gravity removed); Gyro is angular velocity in rad/s.
type Sample struct {
	// Offset is the sample time relative to trace start.
	Offset time.Duration
	Accel  [3]float64
	Gyro   [3]float64
}

// AccelMagnitude returns |Accel|.
func (s Sample) AccelMagnitude() float64 {
	return math.Sqrt(s.Accel[0]*s.Accel[0] + s.Accel[1]*s.Accel[1] + s.Accel[2]*s.Accel[2])
}

// GyroMagnitude returns |Gyro|.
func (s Sample) GyroMagnitude() float64 {
	return math.Sqrt(s.Gyro[0]*s.Gyro[0] + s.Gyro[1]*s.Gyro[1] + s.Gyro[2]*s.Gyro[2])
}

// Regime is a device motion regime.
type Regime int

// Supported motion regimes.
const (
	// Stationary: device resting on a surface or tripod.
	Stationary Regime = iota + 1
	// Handheld: user holding the device still (physiological tremor).
	Handheld
	// Walking: user walking with the device (step oscillation).
	Walking
	// Panning: user sweeping the camera across a scene (sustained
	// rotation).
	Panning
)

// String returns the regime name.
func (r Regime) String() string {
	switch r {
	case Stationary:
		return "stationary"
	case Handheld:
		return "handheld"
	case Walking:
		return "walking"
	case Panning:
		return "panning"
	default:
		return fmt.Sprintf("Regime(%d)", int(r))
	}
}

// SceneStable reports whether the regime's ground truth is "the camera
// keeps seeing the same scene". It is what the motion gate tries to
// infer from sensor data alone.
func (r Regime) SceneStable() bool {
	return r == Stationary || r == Handheld
}

// regimeParams are the per-regime noise statistics.
type regimeParams struct {
	accelNoise float64 // σ of per-axis accel noise, m/s²
	gyroNoise  float64 // σ of per-axis gyro noise, rad/s
	stepAmp    float64 // walking step oscillation amplitude, m/s²
	stepHz     float64 // step frequency
	panRate    float64 // sustained yaw rate, rad/s
}

func paramsFor(r Regime) (regimeParams, error) {
	switch r {
	case Stationary:
		return regimeParams{accelNoise: 0.02, gyroNoise: 0.004}, nil
	case Handheld:
		return regimeParams{accelNoise: 0.12, gyroNoise: 0.03}, nil
	case Walking:
		return regimeParams{accelNoise: 0.4, gyroNoise: 0.15, stepAmp: 2.2, stepHz: 1.9}, nil
	case Panning:
		return regimeParams{accelNoise: 0.1, gyroNoise: 0.05, panRate: 0.9}, nil
	default:
		return regimeParams{}, fmt.Errorf("imu: unknown regime %d", int(r))
	}
}

// Generator produces synthetic IMU traces at a fixed sample rate.
type Generator struct {
	rateHz int
	rng    *rand.Rand
}

// NewGenerator builds a generator sampling at rateHz Hz, seeded for
// reproducibility. Typical smartphone IMU rates are 50–200 Hz.
func NewGenerator(rateHz int, seed int64) (*Generator, error) {
	if rateHz <= 0 {
		return nil, fmt.Errorf("imu: rate must be positive, got %d", rateHz)
	}
	return &Generator{rateHz: rateHz, rng: rand.New(rand.NewSource(seed))}, nil
}

// Generate produces dur worth of samples in regime r, starting at
// offset start. Samples are spaced 1/rate apart.
func (g *Generator) Generate(r Regime, start, dur time.Duration) ([]Sample, error) {
	p, err := paramsFor(r)
	if err != nil {
		return nil, err
	}
	if dur < 0 {
		return nil, fmt.Errorf("imu: negative duration %v", dur)
	}
	step := time.Second / time.Duration(g.rateHz)
	n := int(dur / step)
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		off := start + time.Duration(i)*step
		t := off.Seconds()
		var s Sample
		s.Offset = off
		for ax := 0; ax < 3; ax++ {
			s.Accel[ax] = g.rng.NormFloat64() * p.accelNoise
			s.Gyro[ax] = g.rng.NormFloat64() * p.gyroNoise
		}
		if p.stepAmp > 0 {
			// Vertical step oscillation plus a weaker fore-aft
			// component, as in walking traces.
			s.Accel[2] += p.stepAmp * math.Sin(2*math.Pi*p.stepHz*t)
			s.Accel[0] += 0.4 * p.stepAmp * math.Sin(2*math.Pi*p.stepHz*t+math.Pi/3)
		}
		if p.panRate > 0 {
			s.Gyro[1] += p.panRate
		}
		out = append(out, s)
	}
	return out, nil
}

// DetectorConfig tunes the motion detector. The thresholds separate
// "scene stable" regimes (stationary, handheld) from "scene changing"
// regimes (walking, panning).
type DetectorConfig struct {
	// Window is the sliding statistics window.
	Window time.Duration
	// AccelVarThreshold is the maximum accel-magnitude variance
	// ((m/s²)²) considered stationary.
	AccelVarThreshold float64
	// GyroMeanThreshold is the maximum mean gyro magnitude (rad/s)
	// considered stationary.
	GyroMeanThreshold float64
	// MaxRotation is the maximum integrated rotation (radians) since
	// the last Mark before reuse is disallowed.
	MaxRotation float64
}

// Validate reports whether the configuration is usable.
func (c DetectorConfig) Validate() error {
	if c.Window <= 0 {
		return fmt.Errorf("imu: window must be positive, got %v", c.Window)
	}
	if c.AccelVarThreshold <= 0 {
		return fmt.Errorf("imu: accel variance threshold must be positive, got %v", c.AccelVarThreshold)
	}
	if c.GyroMeanThreshold <= 0 {
		return fmt.Errorf("imu: gyro threshold must be positive, got %v", c.GyroMeanThreshold)
	}
	if c.MaxRotation <= 0 {
		return fmt.Errorf("imu: max rotation must be positive, got %v", c.MaxRotation)
	}
	return nil
}

// DefaultDetectorConfig returns thresholds tuned to the generator's
// regime statistics: stationary and handheld pass, walking and panning
// fail.
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{
		Window:            500 * time.Millisecond,
		AccelVarThreshold: 0.12,
		GyroMeanThreshold: 0.12,
		MaxRotation:       0.15,
	}
}

// State is the detector's current assessment.
type State struct {
	// Stationary reports whether the window statistics are below both
	// thresholds.
	Stationary bool
	// RotationSinceMark is the integrated |gyro| since the last Mark,
	// in radians.
	RotationSinceMark float64
	// MaxRotation is the rotation bound in force: the configured one,
	// scaled by SetStrictness.
	MaxRotation float64
	// AccelVariance is the accel-magnitude variance over the window.
	AccelVariance float64
	// GyroMean is the mean gyro magnitude over the window.
	GyroMean float64
	// Samples is the number of samples in the window.
	Samples int
}

// reading is what the window keeps of a sample: its offset and the two
// magnitudes State sums, each taken once, when the sample arrives,
// rather than once per State call for every sample still in the window.
type reading struct {
	off         time.Duration
	accel, gyro float64
}

// Detector maintains sliding-window motion statistics over a sample
// stream. Detector is not safe for concurrent use; each device pipeline
// owns one.
type Detector struct {
	cfg DetectorConfig
	// base keeps the configured thresholds so SetStrictness scales from
	// the original values, not compounding on itself.
	base DetectorConfig
	// ring holds the window's readings, oldest at head, count of them in
	// use, wrapping around. Its length is a power of two (index masking)
	// and grows until it holds the busiest window seen; from then on a
	// sample costs one slot write, however many it pushes out.
	ring        []reading
	head, count int
	rotation    float64
	lastOff     time.Duration
	started     bool
}

// NewDetector builds a detector with cfg.
func NewDetector(cfg DetectorConfig) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg, base: cfg}, nil
}

// SetStrictness scales the reuse thresholds to scale× their configured
// values: 1 restores the configured gate, smaller values demand the
// device be stiller (and have rotated less) before the gate may reuse.
// Scales outside (0, 1] are ignored. Like every Detector method, the
// caller synchronizes.
func (d *Detector) SetStrictness(scale float64) {
	if scale <= 0 || scale > 1 {
		return
	}
	d.cfg.AccelVarThreshold = d.base.AccelVarThreshold * scale
	d.cfg.GyroMeanThreshold = d.base.GyroMeanThreshold * scale
	d.cfg.MaxRotation = d.base.MaxRotation * scale
}

// Observe feeds one sample. Samples must arrive in non-decreasing
// Offset order; out-of-order samples are dropped.
func (d *Detector) Observe(s Sample) {
	if d.started && s.Offset < d.lastOff {
		return
	}
	r := reading{off: s.Offset, accel: s.AccelMagnitude(), gyro: s.GyroMagnitude()}
	if d.started {
		dt := (s.Offset - d.lastOff).Seconds()
		d.rotation += r.gyro * dt
	}
	d.started = true
	d.lastOff = s.Offset
	if d.count == len(d.ring) {
		d.grow()
	}
	mask := len(d.ring) - 1
	d.ring[(d.head+d.count)&mask] = r
	d.count++
	for cutoff := s.Offset - d.cfg.Window; d.count > 0 && d.ring[d.head].off < cutoff; d.count-- {
		d.head = (d.head + 1) & mask
	}
}

// grow doubles the ring, unwrapping the window to its start.
func (d *Detector) grow() {
	ring := make([]reading, max(16, 2*len(d.ring)))
	older, newer := d.segments()
	copy(ring[copy(ring, older):], newer)
	d.ring, d.head = ring, 0
}

// segments returns the window as at most two runs of the ring, oldest
// reading first.
func (d *Detector) segments() (older, newer []reading) {
	if end := d.head + d.count; end > len(d.ring) {
		return d.ring[d.head:], d.ring[:end-len(d.ring)]
	}
	return d.ring[d.head : d.head+d.count], nil
}

// ObserveAll feeds a batch of samples.
func (d *Detector) ObserveAll(ss []Sample) {
	for _, s := range ss {
		d.Observe(s)
	}
}

// Mark resets the rotation integrator. The pipeline calls Mark whenever
// a fresh recognition result is produced, so RotationSinceMark measures
// how far the camera has turned away from the last recognized scene.
func (d *Detector) Mark() { d.rotation = 0 }

// State returns the current assessment. With fewer than two samples in
// the window the detector conservatively reports non-stationary.
func (d *Detector) State() State {
	st := State{RotationSinceMark: d.rotation, MaxRotation: d.cfg.MaxRotation, Samples: d.count}
	if d.count < 2 {
		return st
	}
	// Oldest to newest, whatever the ring's phase: the sums must not
	// depend on where the window happens to wrap. The magnitudes are the
	// ones Observe took, so each sum adds the same values in the same
	// order as taking them here would.
	var sum, sumSq, gyro float64
	older, newer := d.segments()
	for _, run := range [2][]reading{older, newer} {
		for i := range run {
			m := run[i].accel
			sum += m
			sumSq += m * m
			gyro += run[i].gyro
		}
	}
	n := float64(d.count)
	mean := sum / n
	st.AccelVariance = max(sumSq/n-mean*mean, 0)
	st.GyroMean = gyro / n
	st.Stationary = st.AccelVariance <= d.cfg.AccelVarThreshold &&
		st.GyroMean <= d.cfg.GyroMeanThreshold
	return st
}

// AllowReuse reports whether the inertial gate permits reusing the last
// recognition result: the device is stationary and has not rotated past
// MaxRotation since the result was produced.
func (d *Detector) AllowReuse() bool { return d.State().AllowsReuse() }

// AllowsReuse is AllowReuse's verdict on an assessment already taken.
func (st State) AllowsReuse() bool {
	return st.Stationary && st.RotationSinceMark <= st.MaxRotation && st.Samples >= 2
}
