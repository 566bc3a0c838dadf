// Fault matrix: replays one device's workload with each class of
// device-side fault injected — corrupted IMU windows, degenerate
// frames, a DNN outage — with the sensor guards and classifier
// watchdog toggled, so the cost of each fault and the value of each
// defence are measured side by side. E19 and the acceptance fault
// test both run on it.
package eval

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"approxcache/internal/core"
	"approxcache/internal/dnn"
	"approxcache/internal/simclock"
	"approxcache/internal/trace"
)

// Fault-injection cadence: every injectEvery-th frame is corrupted,
// after a short clean warmup that lets the cache and gates settle.
const (
	faultWarmupFrames = 8
	faultInjectEvery  = 3
	// faultMinFrames is the shortest workload the fault windows fit;
	// RunExperiments refuses E19 below it.
	faultMinFrames = 30
)

// faultScenario names one row of the matrix.
type faultScenario struct {
	// Name labels the row.
	Name string
	// IMU, when non-zero, corrupts every faultInjectEvery-th frame's
	// IMU window with this fault class.
	IMU trace.IMUFault
	// Frame, when non-zero, corrupts every faultInjectEvery-th frame's
	// image with this fault class.
	Frame trace.FrameFault
	// Outage, when true, takes the classifier down 40% into the
	// workload and heals it at 70% (frame indices).
	Outage bool
	// NoGuards disables the sensor guards (the unguarded baseline).
	NoGuards bool
	// NoWatchdog disables the classifier watchdog.
	NoWatchdog bool
}

// faultRow is the measured outcome of one scenario.
type faultRow struct {
	// Name echoes the scenario.
	Name string
	// Frames is how many frames produced a result; Rejected is how
	// many the guards refused with a typed error (structurally
	// unusable input).
	Frames   int
	Rejected int
	// Accuracy is the fraction of served frames whose label matched
	// the workload's ground truth.
	Accuracy float64
	// Mean is the mean served-frame latency.
	Mean time.Duration
	// SensorFaults counts inputs the guards flagged; DegradedServes
	// counts frames answered below the full pipeline (cache-only or
	// last-result fallback).
	SensorFaults   int
	DegradedServes int
	// Timeouts..FastFails are the watchdog counters.
	Timeouts, Retries, Trips, Recoveries, FastFails int
}

// faultScenarios is the matrix E19 runs: a clean baseline, every sensor
// fault class trace injects under the guards, two of them unguarded, and
// a mid-session DNN outage with and without the watchdog.
var faultScenarios = []faultScenario{
	{Name: "clean"},
	{Name: "imu-dropout (guarded)", IMU: trace.IMUDropout},
	{Name: "imu-stuck (guarded)", IMU: trace.IMUStuck},
	{Name: "imu-stuck (unguarded)", IMU: trace.IMUStuck, NoGuards: true},
	{Name: "imu-saturate (guarded)", IMU: trace.IMUSaturate},
	{Name: "imu-non-monotonic (guarded)", IMU: trace.IMUNonMonotonic},
	{Name: "imu-clock-skew (guarded)", IMU: trace.IMUClockSkew},
	{Name: "imu-non-finite (guarded)", IMU: trace.IMUNonFinite},
	{Name: "frame-black (guarded)", Frame: trace.FrameBlack},
	{Name: "frame-flat (guarded)", Frame: trace.FrameFlat},
	{Name: "frame-black (unguarded)", Frame: trace.FrameBlack, NoGuards: true},
	{Name: "dnn-outage (watchdog)", Outage: true},
	{Name: "dnn-outage (no watchdog)", Outage: true, NoWatchdog: true},
}

// runFaultScenario replays a stationary-heavy workload of s.Frames
// frames under one scenario and measures the outcome. Typed sensor
// errors (ErrBadFrame, ErrBadIMUWindow) are counted as rejections, not
// run failures: refusing a structurally unusable input is the guard
// doing its job. s.Frames is at least faultMinFrames.
func runFaultScenario(sc faultScenario, s Scale) faultRow {
	ecfg := core.DefaultConfig()
	ecfg.DisableSensorGuards = sc.NoGuards
	ecfg.DisableWatchdog = sc.NoWatchdog
	// The default guard thresholds suit second-scale windows; the
	// per-frame gating windows here (15 fps camera, 100 Hz IMU → ~6
	// samples each) need thresholds sized to that geometry or dropout
	// and stuck faults fit entirely inside the tolerances.
	ecfg.IMUGuard.MaxGap = 25 * time.Millisecond
	ecfg.IMUGuard.StuckRun = 5
	dcfg := deviceConfig{Name: "main", Spec: trace.StationaryHeavy(s.Frames, s.Seed), Engine: ecfg, Seed: s.Seed}
	var faulty *dnn.FaultyClassifier
	if sc.Outage {
		dcfg.WrapClassifier = func(c *dnn.Classifier) core.Classifier {
			faulty = must(dnn.NewFaultyClassifier(c, nil))
			return faulty
		}
	}
	dev := buildDevice(dcfg, simclock.NewVirtual(time.Unix(0, 0)), nil)

	rng := rand.New(rand.NewSource(s.Seed))
	downAt, healAt := s.Frames*2/5, s.Frames*7/10
	row := faultRow{Name: sc.Name}
	var sum time.Duration
	dev.replay(hooks{
		pin: true,
		before: func(i int, in *frameInput) {
			if faulty != nil && (i == downAt || i == healAt) {
				faulty.SetDown(i == downAt)
			}
			if i < faultWarmupFrames || i%faultInjectEvery != 0 {
				return
			}
			if sc.IMU != 0 {
				in.win = trace.CorruptIMUWindow(in.win, sc.IMU, rng)
			}
			if sc.Frame != 0 {
				in.im = trace.CorruptFrame(in.im, sc.Frame)
			}
		},
		after: func(_ int, _ *frameInput, res core.Result, err error) {
			if errors.Is(err, core.ErrBadFrame) || errors.Is(err, core.ErrBadIMUWindow) {
				row.Rejected++
				return
			}
			check(err)
			row.Frames++
			sum += res.Latency
		},
	})
	if row.Frames > 0 {
		row.Mean = sum / time.Duration(row.Frames)
	}
	stats := dev.engine.Stats()
	row.Accuracy = stats.Accuracy()
	row.SensorFaults = stats.SensorFaultTotal()
	row.DegradedServes = stats.DegradedServeTotal()
	row.Timeouts, row.Retries, row.Trips, row.Recoveries, row.FastFails = stats.WatchdogEvents()
	return row
}

// runFaultMatrix runs every scenario at scale s.
func runFaultMatrix(s Scale) []faultRow {
	rows := make([]faultRow, len(faultScenarios))
	for i, sc := range faultScenarios {
		rows[i] = runFaultScenario(sc, s)
	}
	return rows
}

// E19DeviceFaults measures the device-side fault-tolerance layer: each
// sensor fault class with the guards on (and the worst ones off), and
// a mid-session DNN outage with and without the watchdog. The shape
// the layer must produce: guarded rows keep accuracy at the clean
// baseline, the outage row keeps serving (degraded, bounded latency,
// zero run failures) and recovers after the heal.
func E19DeviceFaults(s Scale) Report {
	report := Report{
		ID: "E19",
		Title: fmt.Sprintf(
			"Device fault matrix: sensor corruption and DNN outage, guards and watchdog on/off (%d frames, fault every %d frames)",
			s.Frames, faultInjectEvery),
		Headers: []string{"scenario", "frames", "rejected", "accuracy", "mean",
			"sensor-faults", "degraded", "watchdog t/r/tr/rec/ff"},
		Notes: []string{
			"guarded sensor faults are routed past the reuse gates: accuracy holds at the clean baseline, latency pays for the lost reuse",
			"a non-finite IMU reading is corrupt data: the guard refuses the frame with a typed error (the rejected column)",
			"unguarded faults let corrupt inputs reach the detector and the cache — the damage the guards exist to stop",
			"dnn-outage crashes the classifier 40% in and heals it at 70%: the watchdog trips, serves cache-only fallbacks, and recovers on heal",
		},
	}
	for _, r := range runFaultMatrix(s) {
		report.Rows = append(report.Rows, []string{
			r.Name,
			fmt.Sprintf("%d", r.Frames),
			fmt.Sprintf("%d", r.Rejected),
			fmtPct(r.Accuracy),
			fmtDur(r.Mean),
			fmt.Sprintf("%d", r.SensorFaults),
			fmt.Sprintf("%d", r.DegradedServes),
			fmt.Sprintf("%d/%d/%d/%d/%d", r.Timeouts, r.Retries, r.Trips, r.Recoveries, r.FastFails),
		})
	}
	return report
}
