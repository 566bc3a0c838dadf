package imu

// The detector's window lives in a ring buffer. These tests hold it to
// the slice-backed window it replaced: identical State — every variance
// and mean to the bit — after every sample of any stream, and no
// allocation once the ring has grown to the window's size.

import (
	"math/rand"
	"testing"
	"time"
)

// sliceDetector is the window as it was before the ring: append, then
// re-pack the slice whenever samples age out.
type sliceDetector struct {
	cfg      DetectorConfig
	window   []Sample
	rotation float64
	lastOff  time.Duration
	started  bool
}

func (d *sliceDetector) observe(s Sample) {
	if d.started && s.Offset < d.lastOff {
		return
	}
	if d.started {
		d.rotation += s.GyroMagnitude() * (s.Offset - d.lastOff).Seconds()
	}
	d.started, d.lastOff = true, s.Offset
	d.window = append(d.window, s)
	trim := 0
	for trim < len(d.window) && d.window[trim].Offset < s.Offset-d.cfg.Window {
		trim++
	}
	d.window = append(d.window[:0], d.window[trim:]...)
}

func (d *sliceDetector) state() State {
	st := State{RotationSinceMark: d.rotation, MaxRotation: d.cfg.MaxRotation, Samples: len(d.window)}
	if len(d.window) < 2 {
		return st
	}
	var sum, sumSq, gyro float64
	for _, s := range d.window {
		m := s.AccelMagnitude()
		sum += m
		sumSq += m * m
		gyro += s.GyroMagnitude()
	}
	n := float64(len(d.window))
	mean := sum / n
	st.AccelVariance = max(0, sumSq/n-mean*mean)
	st.GyroMean = gyro / n
	st.Stationary = st.AccelVariance <= d.cfg.AccelVarThreshold && st.GyroMean <= d.cfg.GyroMeanThreshold
	return st
}

func TestRingWindowMatchesSliceWindow(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultDetectorConfig()
		cfg.Window = time.Duration(20+rng.Intn(600)) * time.Millisecond
		det, err := NewDetector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := &sliceDetector{cfg: cfg}
		off := time.Duration(0)
		for i := 0; i < 3000; i++ {
			// Mostly a steady 100 Hz; now and then a duplicate timestamp, a
			// sample from the past (dropped), or a gap — up to several
			// windows long, which ages out everything at once — so the
			// ring grows, wraps at every phase and empties.
			switch r := rng.Intn(100); {
			case r < 5:
			case r < 8:
				off -= time.Duration(rng.Intn(30)) * time.Millisecond
			case r < 11:
				off += time.Duration(rng.Int63n(int64(3 * cfg.Window)))
			default:
				off += 10 * time.Millisecond
			}
			var s Sample
			s.Offset = off
			for ax := range s.Accel {
				s.Accel[ax], s.Gyro[ax] = rng.NormFloat64(), rng.NormFloat64()*0.1
			}
			det.Observe(s)
			ref.observe(s)
			if off < ref.lastOff {
				off = ref.lastOff
			}
			if rng.Intn(50) == 0 {
				det.Mark()
				ref.rotation = 0
			}
			if got, want := det.State(), ref.state(); got != want {
				t.Fatalf("seed %d sample %d: ring %+v, slice %+v", seed, i, got, want)
			}
		}
	}
}

func TestObserveDoesNotAllocateOnceGrown(t *testing.T) {
	det, _ := NewDetector(DefaultDetectorConfig())
	off := time.Duration(0)
	feed := func() {
		for i := 0; i < 10; i++ {
			off += 10 * time.Millisecond
			det.Observe(Sample{Offset: off, Accel: [3]float64{0.1, 0, 0}})
		}
		det.AllowReuse()
	}
	for i := 0; i < 20; i++ {
		feed()
	}
	if n := testing.AllocsPerRun(200, feed); n != 0 {
		t.Fatalf("steady-state Observe/AllowReuse allocates %v times per frame", n)
	}
	if det.State().Samples != 51 {
		t.Fatalf("window holds %d samples, want 51", det.State().Samples)
	}
}

// BenchmarkHotPathIMUObserve is one frame's inertial work at the
// standard rates (100 Hz IMU, 10 fps): ten samples into a full 500 ms
// window, then the gate's decision. Budget: 0 allocs/op.
func BenchmarkHotPathIMUObserve(b *testing.B) {
	gen, _ := NewGenerator(100, 1)
	trace, err := gen.Generate(Handheld, 0, 10*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	det, _ := NewDetector(DefaultDetectorConfig())
	det.ObserveAll(trace)
	base := trace[len(trace)-1].Offset + 10*time.Millisecond
	win := make([]Sample, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range win {
			win[j] = trace[(i*10+j)%len(trace)]
			win[j].Offset = base + time.Duration(i*10+j)*10*time.Millisecond
		}
		det.ObserveAll(win)
		det.AllowReuse()
	}
}
