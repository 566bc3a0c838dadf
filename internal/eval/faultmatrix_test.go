package eval

import (
	"testing"
)

// TestFaultMatrixAcceptance is the PR's acceptance gate for the
// device-side fault-tolerance layer: every guarded sensor-fault row
// keeps accuracy at the clean baseline, the DNN outage is served
// through (no aborts, bounded latency) with the breaker tripping and
// recovering on heal, and the guard counters are visible per row.
func TestFaultMatrixAcceptance(t *testing.T) {
	const frames = 150
	rows := runFaultMatrix(Scale{Frames: frames, Seed: 42})
	if len(rows) != len(faultScenarios) {
		t.Fatalf("got %d rows, want %d", len(rows), len(faultScenarios))
	}
	byName := make(map[string]faultRow, len(rows))
	for _, r := range rows {
		if r.Frames+r.Rejected != frames {
			t.Errorf("%s: %d served + %d rejected ≠ %d frames", r.Name, r.Frames, r.Rejected, frames)
		}
		byName[r.Name] = r
	}

	clean := byName["clean"]
	if clean.SensorFaults != 0 || clean.DegradedServes != 0 || clean.Trips != 0 {
		t.Fatalf("clean run not clean: %+v", clean)
	}
	if clean.Accuracy < 0.9 {
		t.Fatalf("clean accuracy %.3f, want ≥ 0.9", clean.Accuracy)
	}

	// Guarded IMU faults: detected, routed past the reuse gates, and
	// harmless to accuracy.
	for _, name := range []string{"imu-dropout (guarded)", "imu-stuck (guarded)", "imu-saturate (guarded)",
		"imu-non-monotonic (guarded)", "imu-clock-skew (guarded)"} {
		r := byName[name]
		if r.SensorFaults == 0 {
			t.Errorf("%s: guards detected nothing", name)
		}
		if r.Accuracy < clean.Accuracy-0.02 {
			t.Errorf("%s: accuracy %.3f fell below clean %.3f", name, r.Accuracy, clean.Accuracy)
		}
	}
	// A non-finite reading is corrupt data: every flagged window is
	// refused with a typed error, and the frames served stay accurate.
	if r := byName["imu-non-finite (guarded)"]; r.Rejected == 0 || r.Rejected != r.SensorFaults {
		t.Errorf("imu-non-finite (guarded): %d rejected of %d flagged, want every flagged window refused", r.Rejected, r.SensorFaults)
	} else if r.Accuracy < clean.Accuracy-0.02 {
		t.Errorf("imu-non-finite (guarded): accuracy %.3f fell below clean %.3f", r.Accuracy, clean.Accuracy)
	}
	// Degenerate frames: flagged and kept out of the cache; the DNN
	// still answers them (accuracy on unanswerable frames is not the
	// guard's to fix, pollution is). A refused frame's answer must not
	// spread to the frames after it either: while it became the last
	// result, the inertial gate repeated it and these rows read 0.37
	// (flat) at this scale.
	for _, name := range []string{"frame-black (guarded)", "frame-flat (guarded)"} {
		r := byName[name]
		if r.SensorFaults == 0 {
			t.Errorf("%s: guards detected nothing", name)
		}
		if r.Accuracy < clean.Accuracy-0.2 {
			t.Errorf("%s: accuracy %.3f, more than 0.2 below clean %.3f", name, r.Accuracy, clean.Accuracy)
		}
	}
	// Unguarded rows must show the guards actually off.
	for _, name := range []string{"imu-stuck (unguarded)", "frame-black (unguarded)"} {
		if r := byName[name]; r.SensorFaults != 0 {
			t.Errorf("%s: sensor faults counted with guards disabled", name)
		}
	}

	// DNN outage with the watchdog: the breaker trips, the engine
	// keeps serving (degraded, zero aborts), and it recovers on heal.
	wd := byName["dnn-outage (watchdog)"]
	if wd.Frames != frames {
		t.Errorf("outage aborted frames: served %d of %d", wd.Frames, frames)
	}
	if wd.Trips < 1 || wd.Recoveries < 1 {
		t.Errorf("outage trips=%d recoveries=%d, want ≥ 1 each", wd.Trips, wd.Recoveries)
	}
	if wd.FastFails == 0 {
		t.Error("outage: breaker never fast-failed while open")
	}
	if wd.DegradedServes == 0 {
		t.Error("outage: no degraded serves during the down window")
	}
	if wd.Accuracy < 0.9 {
		t.Errorf("outage accuracy %.3f, want ≥ 0.9 (cache-only serves of warm content)", wd.Accuracy)
	}
	// Without the watchdog there is no breaker bookkeeping, but the
	// engine's own fallback still serves the outage.
	raw := byName["dnn-outage (no watchdog)"]
	if raw.Trips != 0 || raw.FastFails != 0 {
		t.Errorf("no-watchdog row has breaker events: %+v", raw)
	}
	if raw.DegradedServes == 0 {
		t.Error("no-watchdog outage: no degraded serves")
	}
}

func TestE19Report(t *testing.T) {
	rep := E19DeviceFaults(Scale{Frames: 90, Seed: 42})
	if rep.ID != "E19" {
		t.Fatalf("report ID = %q", rep.ID)
	}
	if len(rep.Rows) != len(faultScenarios) {
		t.Fatalf("report has %d rows, want %d", len(rep.Rows), len(faultScenarios))
	}
	if len(rep.Headers) == 0 || rep.Headers[0] != "scenario" {
		t.Fatalf("report headers = %v", rep.Headers)
	}
}
