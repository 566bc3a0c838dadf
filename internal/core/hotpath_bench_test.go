package core

import (
	"testing"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/dnn"
	"approxcache/internal/imu"
	"approxcache/internal/lsh"
	"approxcache/internal/metrics"
	"approxcache/internal/simclock"
	"approxcache/internal/vision"
)

// engineFrameCase is one steady state of the engine's frame path: a
// configuration under which the same pre-rendered frame with the same
// IMU window is served by want on every frame after the first.
type engineFrameCase struct {
	name string
	cfg  func(*Config)
	want metrics.Source
}

// benchCapacity is the benchmark store's size.
const benchCapacity = 128

var engineFrameCases = []engineFrameCase{
	{"imu", func(*Config) {}, metrics.SourceIMU},
	{"video", func(c *Config) { c.DisableIMUGate = true }, metrics.SourceVideo},
	{"local", func(c *Config) { c.DisableIMUGate, c.DisableVideoGate = true, true }, metrics.SourceLocal},
	// A vote that needs more in-range neighbours than it may consider
	// never accepts: every frame misses, infers under the watchdog,
	// repairs and inserts.
	{"dnn", func(c *Config) {
		c.DisableIMUGate, c.DisableVideoGate = true, true
		c.Vote.MinVotes = c.Vote.K + 1
	}, metrics.SourceDNN},
}

// newEngineFrame builds c's engine, warms it until its cache is full (a
// miss then evicts as it inserts), and returns it with the frame and the
// IMU window that every frame carries.
func newEngineFrame(tb testing.TB, c engineFrameCase) (*Engine, *vision.Image, []imu.Sample) {
	tb.Helper()
	classes, err := vision.NewClassSet(6, 48, 48, 77)
	if err != nil {
		tb.Fatal(err)
	}
	clock := simclock.NewVirtual(time.Unix(0, 0))
	clf, err := dnn.NewClassifier(perfectProfile(), classes, 1)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxReuseStreak = 0 // no revalidation: every frame takes one path
	c.cfg(&cfg)
	idx, err := lsh.NewHyperplane(cfg.Extractor.Dim(), 12, 4, 2)
	if err != nil {
		tb.Fatal(err)
	}
	store, err := cachestore.New(cachestore.Config{Capacity: benchCapacity}, idx, clock)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := New(cfg, Deps{Clock: clock, Classifier: clf, Store: store})
	if err != nil {
		tb.Fatal(err)
	}
	im, err := classes.Prototype(2)
	if err != nil {
		tb.Fatal(err)
	}
	win := stationaryWindow(0)
	for i := 0; i < 2*benchCapacity; i++ {
		nextWindow(win)
		if _, err := eng.Process(im, win); err != nil {
			tb.Fatal(err)
		}
	}
	return eng, im, win
}

// nextWindow re-stamps win as the samples of the next frame, 100 ms
// later: the detector sees fresh samples, the buffer stays the same.
func nextWindow(win []imu.Sample) {
	for i := range win {
		win[i].Offset += 100 * time.Millisecond
	}
}

// BenchmarkHotPathEngineFrame is one frame through the whole engine in
// each steady state, its record filled into a reused one. The reuse
// paths allocate nothing; a miss allocates what the watchdog's call
// deadline does (goroutine, channel, timer).
func BenchmarkHotPathEngineFrame(b *testing.B) {
	for _, c := range engineFrameCases {
		b.Run(c.name, func(b *testing.B) {
			eng, im, win := newEngineFrame(b, c)
			var rec FrameRecord
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nextWindow(win)
				res, err := eng.ProcessRecord(im, win, "", &rec)
				if err != nil || res.Source != c.want {
					b.Fatalf("frame %d: %+v, %v; want %s", i, res, err, c.want)
				}
			}
		})
	}
}
