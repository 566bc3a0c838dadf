package imu

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestSampleMagnitudes(t *testing.T) {
	s := Sample{Accel: [3]float64{3, 4, 0}, Gyro: [3]float64{0, 0, 2}}
	if m := s.AccelMagnitude(); math.Abs(m-5) > 1e-12 {
		t.Fatalf("accel magnitude = %v", m)
	}
	if m := s.GyroMagnitude(); math.Abs(m-2) > 1e-12 {
		t.Fatalf("gyro magnitude = %v", m)
	}
}

func TestRegimeString(t *testing.T) {
	names := map[Regime]string{
		Stationary: "stationary",
		Handheld:   "handheld",
		Walking:    "walking",
		Panning:    "panning",
	}
	for r, want := range names {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), want)
		}
	}
	if Regime(0).String() != "Regime(0)" {
		t.Fatalf("unknown regime string = %q", Regime(0).String())
	}
}

func TestSceneStable(t *testing.T) {
	if !Stationary.SceneStable() || !Handheld.SceneStable() {
		t.Fatal("stationary/handheld should be scene-stable")
	}
	if Walking.SceneStable() || Panning.SceneStable() {
		t.Fatal("walking/panning should not be scene-stable")
	}
}

func TestNewGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(0, 1); err == nil {
		t.Fatal("zero rate should error")
	}
	g, err := NewGenerator(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.rateHz != 100 {
		t.Fatalf("rate = %d Hz", g.rateHz)
	}
}

func TestGenerateErrors(t *testing.T) {
	g, err := NewGenerator(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Generate(Regime(42), 0, time.Second); err == nil {
		t.Fatal("unknown regime should error")
	}
	if _, err := g.Generate(Stationary, 0, -time.Second); err == nil {
		t.Fatal("negative duration should error")
	}
}

func TestGenerateShape(t *testing.T) {
	g, err := NewGenerator(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := g.Generate(Stationary, time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 200 {
		t.Fatalf("len = %d, want 200", len(ss))
	}
	if ss[0].Offset != time.Second {
		t.Fatalf("first offset = %v", ss[0].Offset)
	}
	for i := 1; i < len(ss); i++ {
		if ss[i].Offset <= ss[i-1].Offset {
			t.Fatal("offsets not strictly increasing")
		}
	}
}

// The generator's regimes must be statistically separable: that is the
// ground truth the motion detector is graded against.
func TestRegimeStatisticsSeparable(t *testing.T) {
	g, err := NewGenerator(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	variance := func(r Regime) (accVar, gyroMean float64) {
		ss, err := g.Generate(r, 0, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		var sum, sumSq, gy float64
		for _, s := range ss {
			m := s.AccelMagnitude()
			sum += m
			sumSq += m * m
			gy += s.GyroMagnitude()
		}
		n := float64(len(ss))
		mean := sum / n
		return sumSq/n - mean*mean, gy / n
	}
	statVar, statGyro := variance(Stationary)
	handVar, handGyro := variance(Handheld)
	walkVar, _ := variance(Walking)
	_, panGyro := variance(Panning)
	if statVar >= walkVar/10 {
		t.Fatalf("stationary accel var %v not ≪ walking %v", statVar, walkVar)
	}
	if handVar >= walkVar/4 {
		t.Fatalf("handheld accel var %v not ≪ walking %v", handVar, walkVar)
	}
	if statGyro >= panGyro/10 || handGyro >= panGyro/4 {
		t.Fatalf("gyro means not separable: stat=%v hand=%v pan=%v", statGyro, handGyro, panGyro)
	}
}

func TestDetectorConfigValidate(t *testing.T) {
	good := DefaultDetectorConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []DetectorConfig{
		{},
		{Window: time.Second},
		{Window: time.Second, AccelVarThreshold: 1},
		{Window: time.Second, AccelVarThreshold: 1, GyroMeanThreshold: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := NewDetector(DetectorConfig{}); err == nil {
		t.Fatal("NewDetector accepted bad config")
	}
}

func feed(t *testing.T, d *Detector, r Regime, seed int64, dur time.Duration) {
	t.Helper()
	g, err := NewGenerator(100, seed)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := g.Generate(r, 0, dur)
	if err != nil {
		t.Fatal(err)
	}
	d.ObserveAll(ss)
}

func TestDetectorClassifiesRegimes(t *testing.T) {
	tests := []struct {
		regime Regime
		want   bool
	}{
		{Stationary, true},
		{Handheld, true},
		{Walking, false},
		{Panning, false},
	}
	for _, tt := range tests {
		t.Run(tt.regime.String(), func(t *testing.T) {
			d, err := NewDetector(DefaultDetectorConfig())
			if err != nil {
				t.Fatal(err)
			}
			feed(t, d, tt.regime, 11, 2*time.Second)
			d.Mark() // judge stationarity alone, not accumulated rotation
			st := d.State()
			if st.Stationary != tt.want {
				t.Fatalf("regime %v: stationary=%v (state %+v), want %v",
					tt.regime, st.Stationary, st, tt.want)
			}
		})
	}
}

func TestDetectorEmptyIsNotStationary(t *testing.T) {
	d, err := NewDetector(DefaultDetectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.State().Stationary || d.AllowReuse() {
		t.Fatal("empty detector must not report stationary")
	}
}

func TestRotationIntegrationAndMark(t *testing.T) {
	d, err := NewDetector(DefaultDetectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 1 rad/s yaw for 1 second at 100 Hz ≈ 0.99 rad integrated.
	step := 10 * time.Millisecond
	for i := 0; i < 100; i++ {
		d.Observe(Sample{Offset: time.Duration(i) * step, Gyro: [3]float64{0, 1, 0}})
	}
	rot := d.State().RotationSinceMark
	if rot < 0.9 || rot > 1.1 {
		t.Fatalf("integrated rotation = %v, want ~1", rot)
	}
	d.Mark()
	if d.State().RotationSinceMark != 0 {
		t.Fatal("Mark did not reset rotation")
	}
}

func TestAllowReuseGatesOnRotation(t *testing.T) {
	cfg := DefaultDetectorConfig()
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, d, Stationary, 12, time.Second)
	d.Mark()
	if !d.AllowReuse() {
		t.Fatal("stationary device with no rotation should allow reuse")
	}
	// Inject a quick turn exceeding MaxRotation, then return to rest:
	// the window may look stationary again but the accumulated
	// rotation must still block reuse.
	last := d.lastOff
	for i := 1; i <= 20; i++ {
		d.Observe(Sample{
			Offset: last + time.Duration(i)*10*time.Millisecond,
			Gyro:   [3]float64{0, 2, 0},
		})
	}
	g, err := NewGenerator(100, 13)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := g.Generate(Stationary, d.lastOff+10*time.Millisecond, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	d.ObserveAll(ss)
	if !d.State().Stationary {
		t.Fatal("device should look stationary again after settling")
	}
	if d.AllowReuse() {
		t.Fatal("reuse allowed despite large accumulated rotation")
	}
}

func TestObserveDropsOutOfOrder(t *testing.T) {
	d, err := NewDetector(DefaultDetectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	d.Observe(Sample{Offset: time.Second})
	d.Observe(Sample{Offset: 500 * time.Millisecond, Gyro: [3]float64{9, 9, 9}})
	if d.State().Samples != 1 {
		t.Fatalf("out-of-order sample accepted: %+v", d.State())
	}
	if d.State().RotationSinceMark != 0 {
		t.Fatal("out-of-order sample affected rotation")
	}
}

func TestWindowTrimming(t *testing.T) {
	cfg := DefaultDetectorConfig()
	cfg.Window = 100 * time.Millisecond
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		d.Observe(Sample{Offset: time.Duration(i) * 10 * time.Millisecond})
	}
	// 100 ms window at 10 ms spacing keeps ~11 samples.
	if n := d.State().Samples; n > 12 {
		t.Fatalf("window holds %d samples, want <= 12", n)
	}
}

// Property: rotation integration is non-negative and additive across
// arbitrary in-order gyro streams, and variance is never negative.
func TestDetectorInvariantsProperty(t *testing.T) {
	f := func(gyros []float64) bool {
		cfg := DefaultDetectorConfig()
		d, err := NewDetector(cfg)
		if err != nil {
			return false
		}
		prev := 0.0
		for i, gRaw := range gyros {
			g := math.Mod(math.Abs(gRaw), 3)
			d.Observe(Sample{
				Offset: time.Duration(i) * 10 * time.Millisecond,
				Gyro:   [3]float64{g, 0, 0},
			})
			st := d.State()
			if st.RotationSinceMark < prev-1e-9 {
				return false
			}
			if st.AccelVariance < 0 {
				return false
			}
			prev = st.RotationSinceMark
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
