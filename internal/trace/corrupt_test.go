package trace

import (
	"math/rand"
	"testing"
	"time"

	"approxcache/internal/imu"
	"approxcache/internal/vision"
)

func healthyWindow(t *testing.T) []imu.Sample {
	t.Helper()
	gen, err := imu.NewGenerator(100, 11)
	if err != nil {
		t.Fatal(err)
	}
	win, err := gen.Generate(imu.Walking, 0, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := imu.CheckWindow(win, imu.DefaultGuardConfig()); got != imu.WindowOK {
		t.Fatalf("healthy window flagged %v", got)
	}
	return win
}

// Every IMU corruptor must trigger exactly its matching guard class.
func TestCorruptIMUWindowTriggersGuard(t *testing.T) {
	cfg := imu.DefaultGuardConfig()
	tests := []struct {
		fault IMUFault
		want  imu.WindowFault
	}{
		{IMUDropout, imu.WindowDropout},
		{IMUStuck, imu.WindowStuck},
		{IMUSaturate, imu.WindowSaturated},
		{IMUNonMonotonic, imu.WindowNonMonotonic},
		{IMUClockSkew, imu.WindowClockSkew},
		{IMUNonFinite, imu.WindowNonFinite},
	}
	for _, tc := range tests {
		t.Run(tc.fault.String(), func(t *testing.T) {
			win := healthyWindow(t)
			before := make([]imu.Sample, len(win))
			copy(before, win)
			rng := rand.New(rand.NewSource(7))
			out := CorruptIMUWindow(win, tc.fault, rng)
			if got := imu.CheckWindow(out, cfg); got != tc.want {
				t.Fatalf("guard(%v) = %v, want %v", tc.fault, got, tc.want)
			}
			for i := range win {
				if win[i] != before[i] {
					t.Fatal("corruptor mutated its input window")
				}
			}
		})
	}
}

func TestCorruptIMUWindowSmallInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if out := CorruptIMUWindow(nil, IMUDropout, rng); len(out) != 0 {
		t.Fatalf("nil window -> %d samples", len(out))
	}
	one := []imu.Sample{{Offset: time.Millisecond, Accel: [3]float64{0, 0, 9.8}}}
	for _, f := range []IMUFault{IMUDropout, IMUNonMonotonic} {
		out := CorruptIMUWindow(one, f, rng)
		if len(out) != 1 || out[0] != one[0] {
			t.Fatalf("%v on 1-sample window altered it: %v", f, out)
		}
	}
}

// Every frame corruptor must trigger exactly its matching guard class.
func TestCorruptFrameTriggersGuard(t *testing.T) {
	cfg := vision.DefaultFrameGuardConfig()
	tests := []struct {
		fault FrameFault
		want  vision.FrameFault
	}{
		{FrameBlack, vision.FrameLowEntropy},
		{FrameFlat, vision.FrameLowEntropy},
	}
	for _, tc := range tests {
		t.Run(tc.fault.String(), func(t *testing.T) {
			im := vision.NewImage(32, 32)
			for i := range im.Pix {
				im.Pix[i] = uint8(i % 13 * 19)
			}
			out := CorruptFrame(im, tc.fault)
			if got := vision.CheckFrame(out, cfg); got != tc.want {
				t.Fatalf("guard(%v) = %v, want %v", tc.fault, got, tc.want)
			}
			if out == im {
				t.Fatal("corruptor returned the input image")
			}
			for i := range im.Pix {
				if im.Pix[i] != uint8(i%13*19) {
					t.Fatal("corruptor mutated its input frame")
				}
			}
		})
	}
}

func TestFaultStrings(t *testing.T) {
	for _, f := range []IMUFault{IMUDropout, IMUStuck, IMUSaturate, IMUNonMonotonic, IMUClockSkew, IMUNonFinite} {
		if f.String() == "" {
			t.Fatalf("empty name for %d", int(f))
		}
	}
	if got := IMUFault(99).String(); got != "IMUFault(99)" {
		t.Fatalf("unknown IMU fault string %q", got)
	}
	if got := FrameFault(99).String(); got != "FrameFault(99)" {
		t.Fatalf("unknown frame fault string %q", got)
	}
}
