package imu

import (
	"math"
	"testing"
	"time"
)

// healthyWindow builds a realistic 50 Hz handheld window: small noise on
// every axis, strictly increasing offsets.
func healthyWindow(n int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		out[i].Offset = time.Duration(i) * 20 * time.Millisecond
		for ax := 0; ax < 3; ax++ {
			out[i].Accel[ax] = 0.05 * math.Sin(float64(i*(ax+1)))
			out[i].Gyro[ax] = 0.01 * math.Cos(float64(i+ax))
		}
	}
	return out
}

func TestCheckWindowFaultClasses(t *testing.T) {
	cfg := DefaultGuardConfig()
	tests := []struct {
		name    string
		corrupt func([]Sample) []Sample
		want    WindowFault
	}{
		{"healthy", func(w []Sample) []Sample { return w }, WindowOK},
		{"empty", func([]Sample) []Sample { return nil }, WindowOK},
		{"nan accel", func(w []Sample) []Sample {
			w[3].Accel[1] = math.NaN()
			return w
		}, WindowNonFinite},
		{"inf gyro", func(w []Sample) []Sample {
			w[7].Gyro[2] = math.Inf(1)
			return w
		}, WindowNonFinite},
		{"non-monotonic", func(w []Sample) []Sample {
			w[5].Offset = w[2].Offset - time.Millisecond
			return w
		}, WindowNonMonotonic},
		{"dropout gap", func(w []Sample) []Sample {
			for i := 10; i < len(w); i++ {
				w[i].Offset += 500 * time.Millisecond
			}
			return w
		}, WindowDropout},
		{"stuck axis", func(w []Sample) []Sample {
			for i := range w {
				w[i].Accel[0] = 0.1234
			}
			return w
		}, WindowStuck},
		{"saturated accel", func(w []Sample) []Sample {
			w[4].Accel[2] = 200
			return w
		}, WindowSaturated},
		{"saturated gyro", func(w []Sample) []Sample {
			w[9].Gyro[0] = -50
			return w
		}, WindowSaturated},
		{"clock skew negative", func(w []Sample) []Sample {
			for i := range w {
				w[i].Offset -= time.Hour
			}
			return w
		}, WindowClockSkew},
		{"clock skew span", func(w []Sample) []Sample {
			// Stretch to a >10 s span while keeping gaps under MaxGap
			// impossible — so widen MaxGap locally via offsets just under
			// the gap limit over many samples? Instead scale offsets so
			// each gap is 99 ms but the total span exceeds MaxSpan.
			for i := range w {
				w[i].Offset = time.Duration(i) * 99 * time.Millisecond
			}
			return w
		}, WindowClockSkew},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			n := 30
			if tc.name == "clock skew span" {
				n = 120 // 120 × 99 ms ≈ 11.9 s span with no dropout gaps
			}
			got := CheckWindow(tc.corrupt(healthyWindow(n)), cfg)
			if got != tc.want {
				t.Fatalf("CheckWindow(%s) = %v, want %v", tc.name, got, tc.want)
			}
		})
	}
}

func TestCheckWindowDisabledChecks(t *testing.T) {
	w := healthyWindow(30)
	for i := range w {
		w[i].Accel[0] = 0.5 // stuck
	}
	if got := CheckWindow(w, GuardConfig{}); got != WindowOK {
		t.Fatalf("zero config should disable threshold checks, got %v", got)
	}
	// Non-finite and non-monotonic are structural and stay on even with
	// a zero config.
	w2 := healthyWindow(5)
	w2[2].Gyro[1] = math.NaN()
	if got := CheckWindow(w2, GuardConfig{}); got != WindowNonFinite {
		t.Fatalf("non-finite must be detected regardless of config, got %v", got)
	}
}

func TestGuardConfigValidate(t *testing.T) {
	if err := DefaultGuardConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultGuardConfig()
	bad.MaxGap = -time.Second
	if err := bad.Validate(); err == nil {
		t.Fatal("negative MaxGap accepted")
	}
}

func TestGeneratedWindowsPassGuard(t *testing.T) {
	// Every regime the generator produces must pass the guard: guards
	// exist to catch faults, not to reject healthy traffic.
	cfg := DefaultGuardConfig()
	for _, regime := range []Regime{Stationary, Handheld, Walking, Panning} {
		gen, err := NewGenerator(100, 7)
		if err != nil {
			t.Fatal(err)
		}
		win, err := gen.Generate(regime, 0, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got := CheckWindow(win, cfg); got != WindowOK {
			t.Fatalf("regime %v flagged %v", regime, got)
		}
	}
}

func TestWindowFaultString(t *testing.T) {
	for f, want := range map[WindowFault]string{
		WindowOK: "ok", WindowNonFinite: "non-finite", WindowNonMonotonic: "non-monotonic",
		WindowDropout: "dropout", WindowStuck: "stuck", WindowSaturated: "saturated",
		WindowClockSkew: "clock-skew", WindowFault(99): "WindowFault(99)",
	} {
		if got := f.String(); got != want {
			t.Fatalf("String(%d) = %q, want %q", int(f), got, want)
		}
	}
}

// checkWindowRef is the guard as it was written before the one-pass
// CheckWindow: a pass per fault class, in severity order, returning the
// first class found anywhere, and a pass per axis for stuck runs.
// FuzzCheckWindow holds CheckWindow to it.
func checkWindowRef(win []Sample, cfg GuardConfig) WindowFault {
	if len(win) == 0 {
		return WindowOK
	}
	for i := range win {
		for ax := 0; ax < 3; ax++ {
			if !isFiniteRef(win[i].Accel[ax]) || !isFiniteRef(win[i].Gyro[ax]) {
				return WindowNonFinite
			}
		}
	}
	for i := 1; i < len(win); i++ {
		if win[i].Offset < win[i-1].Offset {
			return WindowNonMonotonic
		}
	}
	if cfg.MaxGap > 0 {
		for i := 1; i < len(win); i++ {
			if win[i].Offset-win[i-1].Offset > cfg.MaxGap {
				return WindowDropout
			}
		}
	}
	if stuckAxisRef(win, cfg.StuckRun) {
		return WindowStuck
	}
	if cfg.MaxAccel > 0 || cfg.MaxGyro > 0 {
		for i := range win {
			for ax := 0; ax < 3; ax++ {
				if cfg.MaxAccel > 0 && math.Abs(win[i].Accel[ax]) >= cfg.MaxAccel {
					return WindowSaturated
				}
				if cfg.MaxGyro > 0 && math.Abs(win[i].Gyro[ax]) >= cfg.MaxGyro {
					return WindowSaturated
				}
			}
		}
	}
	if cfg.MaxSpan > 0 {
		if win[0].Offset < 0 || win[len(win)-1].Offset-win[0].Offset > cfg.MaxSpan {
			return WindowClockSkew
		}
	}
	return WindowOK
}

func stuckAxisRef(win []Sample, run int) bool {
	if run <= 0 || len(win) < run {
		return false
	}
	for ax := 0; ax < 3; ax++ {
		if runLengthRef(win, run, func(s Sample) float64 { return s.Accel[ax] }) ||
			runLengthRef(win, run, func(s Sample) float64 { return s.Gyro[ax] }) {
			return true
		}
	}
	return false
}

func runLengthRef(win []Sample, run int, get func(Sample) float64) bool {
	streak := 1
	for i := 1; i < len(win); i++ {
		if get(win[i]) == get(win[i-1]) {
			streak++
			if streak >= run {
				return true
			}
		} else {
			streak = 1
		}
	}
	return false
}

func isFiniteRef(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// fuzzReadings are the readings a fuzzed axis byte below their count
// names: ±0, the non-finite ones, both sensors' default ranges exactly
// and just inside, and one far past both. Other bytes spread over ±1.27.
var fuzzReadings = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	78.5, -78.5, math.Nextafter(78.5, 0), 34.9, -34.9, math.Nextafter(34.9, 0), 1e300}

// fuzzSteps are the offset steps a fuzzed step byte names, mod their
// count: a repeat, a step back, exactly the default MaxGap and just
// past it, past the default MaxSpan, and a plain 10 ms.
var fuzzSteps = []time.Duration{0, -time.Millisecond, 100 * time.Millisecond,
	100*time.Millisecond + 1, 11 * time.Second, 10 * time.Millisecond}

// fuzzWindow decodes a FuzzCheckWindow input: seven bytes a sample (an
// offset step, then accel and gyro x, y, z), after a start offset that
// is negative when neg is set.
func fuzzWindow(neg bool, raw []byte) []Sample {
	win := make([]Sample, len(raw)/7)
	off := time.Duration(0)
	if neg {
		off = -time.Second
	}
	for i := range win {
		b := raw[7*i : 7*i+7]
		off += fuzzSteps[int(b[0])%len(fuzzSteps)]
		win[i].Offset = off
		for ax := 0; ax < 3; ax++ {
			win[i].Accel[ax] = fuzzReading(b[1+ax])
			win[i].Gyro[ax] = fuzzReading(b[4+ax])
		}
	}
	return win
}

func fuzzReading(b byte) float64 {
	if int(b) < len(fuzzReadings) {
		return fuzzReadings[b]
	}
	return float64(int8(b)) / 100
}

// fuzzConfig is the default guard with the checks whose bits are set in
// off disabled (MaxGap, MaxAccel, MaxGyro, MaxSpan, from bit 0) and
// StuckRun set to run.
func fuzzConfig(off uint8, run uint8) GuardConfig {
	cfg := DefaultGuardConfig()
	cfg.StuckRun = int(run)
	if off&1 != 0 {
		cfg.MaxGap = 0
	}
	if off&2 != 0 {
		cfg.MaxAccel = 0
	}
	if off&4 != 0 {
		cfg.MaxGyro = 0
	}
	if off&8 != 0 {
		cfg.MaxSpan = 0
	}
	return cfg
}

// cleanRaw encodes an n-sample window no check flags under the default
// guard: 10 ms steps, and every axis's reading differs from the one
// before it.
func cleanRaw(n int) []byte {
	raw := make([]byte, 7*n)
	for i := 0; i < n; i++ {
		raw[7*i] = 5
		for ax := 1; ax < 7; ax++ {
			raw[7*i+ax] = byte(20 + (6*i+ax)%200)
		}
	}
	return raw
}

// FuzzCheckWindow holds the one-pass CheckWindow to checkWindowRef on
// every input: same class, so same priority when a window shows more
// than one. The seeds give each class alone, two at once, every check
// disabled, the lengths around StuckRun, and ±0 and NaN readings.
func FuzzCheckWindow(f *testing.F) {
	with := func(n int, edit func(raw []byte)) []byte {
		raw := cleanRaw(n)
		edit(raw)
		return raw
	}
	// stuck sets axis ax (1–6) to reading 40 on samples from..to-1.
	stuck := func(ax, from, to int) func([]byte) {
		return func(raw []byte) {
			for i := from; i < to; i++ {
				raw[7*i+ax] = 40
			}
		}
	}
	f.Add(false, uint8(0), uint8(25), []byte{})                                 // empty
	f.Add(false, uint8(0), uint8(25), cleanRaw(1))                              // one sample
	f.Add(false, uint8(0), uint8(25), cleanRaw(7))                              // device-video's clean window
	f.Add(false, uint8(0), uint8(25), with(7, func(r []byte) { r[7*3+2] = 2 })) // NaN accel
	f.Add(false, uint8(0), uint8(25), with(7, func(r []byte) { r[7*5+6] = 4 })) // -Inf gyro
	f.Add(false, uint8(0), uint8(25), with(7, func(r []byte) { r[7*4] = 1 }))   // step back
	f.Add(false, uint8(0), uint8(25), with(7, func(r []byte) { r[7*4] = 3 }))   // gap just past MaxGap
	f.Add(false, uint8(0), uint8(25), with(7, func(r []byte) { r[7*4] = 2 }))   // gap exactly MaxGap
	f.Add(false, uint8(0), uint8(25), with(30, stuck(1, 0, 30)))                // stuck accel x
	f.Add(false, uint8(0), uint8(25), with(7, func(r []byte) { r[7*4] = 0 }))   // repeated timestamp
	f.Add(false, uint8(0), uint8(3), with(7, func(r []byte) {                   // two runs of 2, not one of 3
		stuck(1, 1, 3)(r)
		stuck(1, 4, 6)(r)
		stuck(6, 1, 3)(r)
		stuck(6, 4, 6)(r)
	}))
	f.Add(false, uint8(0), uint8(5), with(4, stuck(6, 0, 4)))                    // StuckRun−1 equal gyro z
	f.Add(false, uint8(0), uint8(5), with(5, stuck(6, 0, 5)))                    // StuckRun equal gyro z
	f.Add(false, uint8(0), uint8(1), cleanRaw(2))                                // StuckRun 1, no repeat
	f.Add(false, uint8(0), uint8(25), with(7, func(r []byte) { r[7*2+3] = 5 }))  // accel at its range
	f.Add(false, uint8(0), uint8(25), with(7, func(r []byte) { r[7*2+3] = 7 }))  // accel just inside
	f.Add(false, uint8(0), uint8(25), with(7, func(r []byte) { r[1] = 5 }))      // first sample's accel at its range
	f.Add(false, uint8(0), uint8(25), with(7, func(r []byte) { r[6] = 3 }))      // first sample's gyro +Inf
	f.Add(false, uint8(0), uint8(25), with(7, func(r []byte) { r[7*6+4] = 9 }))  // gyro at its range
	f.Add(false, uint8(0), uint8(25), with(7, func(r []byte) { r[7*1+5] = 11 })) // gyro far past
	f.Add(true, uint8(0), uint8(25), cleanRaw(7))                                // negative start
	f.Add(false, uint8(1), uint8(25), with(7, func(r []byte) { r[7*6] = 4 }))    // span past MaxSpan, gap check off
	f.Add(false, uint8(0), uint8(25), with(7, func(r []byte) { r[7*6] = 4 }))    // dropout and span
	f.Add(false, uint8(0), uint8(3), with(7, func(r []byte) {                    // stuck and saturated
		stuck(2, 1, 5)(r)
		r[7*6+1] = 11 // 1e300
	}))
	f.Add(false, uint8(0), uint8(25), with(7, func(r []byte) { r[7*1] = 1; r[7*5+1] = 2 })) // step back, then NaN
	f.Add(false, uint8(0), uint8(25), with(7, func(r []byte) { r[7*2] = 1; r[7*5] = 3 }))   // step back, then a gap
	f.Add(true, uint8(15), uint8(0), with(30, func(r []byte) {                              // every check off
		stuck(1, 0, 30)(r)
		r[7*3] = 4
		r[7*4+1] = 11
	}))
	f.Add(false, uint8(0), uint8(2), with(7, func(r []byte) { // +0 then −0: equal readings
		r[7*2+1], r[7*3+1] = 0, 1
	}))
	f.Add(false, uint8(0), uint8(2), with(7, func(r []byte) { // NaN twice: never equal
		r[7*2+4], r[7*3+4] = 2, 2
	}))
	f.Fuzz(func(t *testing.T, neg bool, off, run uint8, raw []byte) {
		win := fuzzWindow(neg, raw[:min(len(raw), 7*64)])
		cfg := fuzzConfig(off, run%40)
		if got, want := CheckWindow(win, cfg), checkWindowRef(win, cfg); got != want {
			t.Fatalf("CheckWindow = %v, reference %v on %d samples, %+v: %+v", got, want, len(win), cfg, win)
		}
	})
}

// BenchmarkHotPathCheckWindow is the sensor guard on one device-video
// frame's window: seven clean samples, 100 Hz over a 15 fps frame.
// Budget: 0 allocs/op.
func BenchmarkHotPathCheckWindow(b *testing.B) {
	gen, _ := NewGenerator(100, 1)
	win, err := gen.Generate(Handheld, 0, 70*time.Millisecond)
	if err != nil || len(win) != 7 {
		b.Fatalf("window of %d samples, %v", len(win), err)
	}
	cfg := DefaultGuardConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if CheckWindow(win, cfg) != WindowOK {
			b.Fatal("clean window refused")
		}
	}
}
