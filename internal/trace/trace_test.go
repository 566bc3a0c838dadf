package trace

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"approxcache/internal/imu"
	"approxcache/internal/vision"
)

func smallSpec() Spec {
	return Spec{
		Name:       "test",
		FPS:        10,
		IMURateHz:  50,
		NumClasses: 4,
		ImageW:     32,
		ImageH:     32,
		Segments: []SegmentSpec{
			{Regime: "stationary", Frames: 20},
			{Regime: "panning", Frames: 10},
		},
		Seed: 7,
	}
}

func TestSpecValidate(t *testing.T) {
	if err := smallSpec().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.FPS = 0 },
		func(s *Spec) { s.IMURateHz = 0 },
		func(s *Spec) { s.NumClasses = 0 },
		func(s *Spec) { s.ImageW = 0 },
		func(s *Spec) { s.ImageH = -1 },
		func(s *Spec) { s.Segments = nil },
		func(s *Spec) { s.Segments[0].Frames = 0 },
		func(s *Spec) { s.Segments[0].Regime = "flying" },
	}
	for i, mut := range mutations {
		s := smallSpec()
		s.Segments = append([]SegmentSpec(nil), s.Segments...)
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestSpecTotalsAndDuration(t *testing.T) {
	s := smallSpec()
	if s.TotalFrames() != 30 {
		t.Fatalf("TotalFrames = %d", s.TotalFrames())
	}
	if s.Duration() != 3*time.Second {
		t.Fatalf("Duration = %v", s.Duration())
	}
	if (Spec{}).Duration() != 0 {
		t.Fatal("zero spec duration should be 0")
	}
}

func TestGenerateWorkload(t *testing.T) {
	w, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Frames) != 30 {
		t.Fatalf("frames = %d", len(w.Frames))
	}
	// 3 s at 50 Hz = 150 IMU samples.
	if len(w.IMU) != 150 {
		t.Fatalf("imu samples = %d", len(w.IMU))
	}
	if w.Classes == nil || w.Classes.NumClasses() != 4 {
		t.Fatal("class set missing")
	}
	// Frame regimes match the script.
	for i := 0; i < 20; i++ {
		if w.Frames[i].Regime != imu.Stationary {
			t.Fatalf("frame %d regime = %v", i, w.Frames[i].Regime)
		}
	}
	for i := 20; i < 30; i++ {
		if w.Frames[i].Regime != imu.Panning {
			t.Fatalf("frame %d regime = %v", i, w.Frames[i].Regime)
		}
	}
	// IMU offsets are monotone and within the duration.
	for i := 1; i < len(w.IMU); i++ {
		if w.IMU[i].Offset <= w.IMU[i-1].Offset {
			t.Fatal("imu offsets not monotone")
		}
	}
	if last := w.IMU[len(w.IMU)-1].Offset; last >= 3*time.Second {
		t.Fatalf("imu overruns workload: %v", last)
	}
}

func TestGenerateInvalidSpec(t *testing.T) {
	if _, err := Generate(Spec{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Frames {
		if a.Frames[i].Class != b.Frames[i].Class {
			t.Fatalf("classes diverge at %d", i)
		}
		if vision.MeanAbsDiff(a.Frames[i].Image, b.Frames[i].Image) != 0 {
			t.Fatalf("images diverge at %d", i)
		}
	}
	for i := range a.IMU {
		if a.IMU[i] != b.IMU[i] {
			t.Fatalf("imu diverges at %d", i)
		}
	}
}

func TestIMUWindow(t *testing.T) {
	w, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	win := w.IMUWindow(0, 100*time.Millisecond)
	// 50 Hz: samples at 0,20,40,60,80,100 ms; window is (0,100] → 5.
	if len(win) != 5 {
		t.Fatalf("window samples = %d, want 5", len(win))
	}
	for _, s := range win {
		if s.Offset <= 0 || s.Offset > 100*time.Millisecond {
			t.Fatalf("sample offset %v outside window", s.Offset)
		}
	}
	if len(w.IMUWindow(time.Hour, 2*time.Hour)) != 0 {
		t.Fatal("out-of-range window not empty")
	}
}

// TestIMUWindowMatchesScan holds the binary-search window to the linear
// scan it replaced, element for element, over windows that start and end
// on, between, before and after sample offsets (and inverted ones).
func TestIMUWindowMatchesScan(t *testing.T) {
	w, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	scan := func(from, to time.Duration) []imu.Sample {
		var out []imu.Sample
		for _, s := range w.IMU {
			if s.Offset > from && s.Offset <= to {
				out = append(out, s)
			}
		}
		return out
	}
	end := w.IMU[len(w.IMU)-1].Offset + 50*time.Millisecond
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		from := time.Duration(rng.Int63n(int64(end)+int64(100*time.Millisecond))) - 50*time.Millisecond
		to := from + time.Duration(rng.Int63n(int64(300*time.Millisecond))) - 20*time.Millisecond
		if i%3 == 0 { // land exactly on sample offsets
			from = w.IMU[rng.Intn(len(w.IMU))].Offset
			to = w.IMU[rng.Intn(len(w.IMU))].Offset
		}
		got, want := w.IMUWindow(from, to), scan(from, to)
		if (got == nil) != (want == nil) || !slices.Equal(got, want) {
			t.Fatalf("IMUWindow(%v, %v) = %d samples (nil %v), scan %d (nil %v)",
				from, to, len(got), got == nil, len(want), want == nil)
		}
		if cap(got) != len(got) {
			t.Fatalf("IMUWindow(%v, %v): cap %d > len %d lets an append overwrite the stream",
				from, to, cap(got), len(got))
		}
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := smallSpec()
	data, err := EncodeSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != s.Name || out.Seed != s.Seed || len(out.Segments) != len(s.Segments) {
		t.Fatalf("round trip = %+v", out)
	}
	// Workloads regenerated from the decoded spec are identical.
	a, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(out)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Frames {
		if vision.MeanAbsDiff(a.Frames[i].Image, b.Frames[i].Image) != 0 {
			t.Fatalf("regenerated workload differs at frame %d", i)
		}
	}
}

func TestEncodeSpecRejectsInvalid(t *testing.T) {
	if _, err := EncodeSpec(Spec{}); err == nil {
		t.Fatal("invalid spec encoded")
	}
}

func TestDecodeSpecErrors(t *testing.T) {
	if _, err := DecodeSpec([]byte("{")); err == nil {
		t.Fatal("bad json accepted")
	}
	if _, err := DecodeSpec([]byte(`{"name":""}`)); err == nil {
		t.Fatal("invalid decoded spec accepted")
	}
}

func TestStandardSpecs(t *testing.T) {
	specs := StandardSpecs(400, 9)
	if len(specs) != 4 {
		t.Fatalf("specs = %d", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %q invalid: %v", s.Name, err)
		}
		if s.TotalFrames() != 400 {
			t.Errorf("spec %q totals %d frames, want 400", s.Name, s.TotalFrames())
		}
		names[s.Name] = true
	}
	if len(names) != 4 {
		t.Fatalf("duplicate spec names: %v", names)
	}
	// Each standard spec must actually generate.
	for _, s := range specs {
		if _, err := Generate(s); err != nil {
			t.Errorf("generate %q: %v", s.Name, err)
		}
	}
}

func TestStationaryHeavyIsMostlyStable(t *testing.T) {
	s := StationaryHeavy(1000, 1)
	stable := 0
	for _, seg := range s.Segments {
		r, err := parseRegime(seg.Regime)
		if err != nil {
			t.Fatal(err)
		}
		if r.SceneStable() {
			stable += seg.Frames
		}
	}
	if stable*100/s.TotalFrames() < 60 {
		t.Fatalf("stationary-heavy only %d%% stable", stable*100/s.TotalFrames())
	}
}

func TestClassSkew(t *testing.T) {
	s := smallSpec()
	s.ClassSkew = -1
	if err := s.Validate(); err == nil {
		t.Fatal("negative skew accepted")
	}
	share := func(skew float64) float64 {
		spec := Spec{
			Name:       "skew-test",
			FPS:        15,
			IMURateHz:  50,
			NumClasses: 6,
			ImageW:     32,
			ImageH:     32,
			Segments:   []SegmentSpec{{Regime: "panning", Frames: 300}},
			Seed:       9,
			ClassSkew:  skew,
		}
		w, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[int]int{}
		for _, f := range w.Frames {
			counts[f.Class]++
		}
		max := 0
		for _, n := range counts {
			if n > max {
				max = n
			}
		}
		return float64(max) / float64(len(w.Frames))
	}
	if share(1.5) <= share(0) {
		t.Fatal("skewed workload not concentrated")
	}
}
