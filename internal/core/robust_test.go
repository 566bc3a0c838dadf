package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/dnn"
	"approxcache/internal/imu"
	"approxcache/internal/lsh"
	"approxcache/internal/metrics"
	"approxcache/internal/simclock"
	"approxcache/internal/testutil"
	"approxcache/internal/vision"
)

// newFaultyFixture is newFixture with the classifier wrapped in a
// deterministic fault injector.
func newFaultyFixture(t *testing.T, cfg Config, plan dnn.FaultPlan) (*fixture, *dnn.FaultyClassifier) {
	t.Helper()
	classes, err := vision.NewClassSet(6, 48, 48, 77)
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewVirtual(time.Unix(0, 0))
	inner, err := dnn.NewClassifier(perfectProfile(), classes, 1)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := dnn.NewFaultyClassifier(inner, plan)
	if err != nil {
		t.Fatal(err)
	}
	var store *cachestore.Store
	if cfg.Mode == ModeApprox {
		idx, err := lsh.NewHyperplane(cfg.Extractor.Dim(), 12, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		store, err = cachestore.New(cachestore.Config{Capacity: 128}, idx, clock)
		if err != nil {
			t.Fatal(err)
		}
	}
	eng, err := New(cfg, Deps{Clock: clock, Classifier: faulty, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{engine: eng, clock: clock, store: store, classes: classes}, faulty
}

// stuckWindow is long enough for the stuck-axis check and freezes one
// accelerometer axis bit-identically. Its readings are quiet: to the
// unguarded motion detector it is indistinguishable from stillness,
// which is exactly the hazard the guard exists for.
func stuckWindow(off time.Duration) []imu.Sample {
	var out []imu.Sample
	for i := 0; i < 30; i++ {
		out = append(out, imu.Sample{
			Offset: off + time.Duration(i)*10*time.Millisecond,
			Accel:  [3]float64{0.125, 0.001 * float64(i%5), 0},
			Gyro:   [3]float64{0.001 * float64(i%7), 0, 0.002},
		})
	}
	return out
}

func TestProcessTypedErrors(t *testing.T) {
	f := newFixture(t, DefaultConfig(), nil)
	proto, err := f.classes.Prototype(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.engine.Process(nil, stationaryWindow(0)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("nil frame error = %v, want ErrBadFrame", err)
	}
	short := &vision.Image{W: proto.W, H: proto.H, Pix: proto.Pix[:7]}
	if _, err := f.engine.Process(short, stationaryWindow(0)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short frame error = %v, want ErrBadFrame", err)
	}
	win := stationaryWindow(0)
	win[3].Gyro[1] = math.Inf(1)
	if _, err := f.engine.Process(proto, win); !errors.Is(err, ErrBadIMUWindow) {
		t.Fatalf("Inf window error = %v, want ErrBadIMUWindow", err)
	}
	faults := f.engine.Stats().SensorFaults()
	if faults["frame-nil"] != 1 || faults["frame-empty"] != 1 || faults["imu-non-finite"] != 1 {
		t.Fatalf("sensor fault counters = %v", faults)
	}
	if f.engine.Stats().Frames() != 0 {
		t.Fatalf("refused frames were observed: %d", f.engine.Stats().Frames())
	}
}

// A frozen IMU stream fakes perfect stillness; the guard must route it
// past the inertial gate so it cannot serve stale results forever.
func TestStuckIMUWindowRoutedPastGate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableVideoGate = true
	f := newFixture(t, cfg, nil)
	proto, err := f.classes.Prototype(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.engine.Process(proto, stationaryWindow(0)); err != nil {
		t.Fatal(err)
	}
	// Sanity: a genuine stationary window reuses via the IMU gate.
	res, err := f.engine.Process(proto, stationaryWindow(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != metrics.SourceIMU {
		t.Fatalf("stationary source = %v, want imu", res.Source)
	}
	// A stuck window must not: the frame is served, but by a later gate.
	res, err = f.engine.Process(proto, stuckWindow(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source == metrics.SourceIMU {
		t.Fatal("stuck window served through the inertial gate")
	}
	if got := f.engine.Stats().SensorFaults()["imu-stuck"]; got != 1 {
		t.Fatalf("imu-stuck count = %d", got)
	}
}

// Low-entropy frames (covered lens) are classified by the DNN alone and
// never pollute the cache, keyframes, or motion anchor.
func TestLowEntropyFrameBypassesCache(t *testing.T) {
	f := newFixture(t, DefaultConfig(), nil)
	flat := vision.NewImage(48, 48)
	for i := range flat.Pix {
		flat.Pix[i] = 128
	}
	before := f.store.Len()
	res, err := f.engine.Process(flat, movingWindow(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != metrics.SourceDNN {
		t.Fatalf("flat frame source = %v, want dnn", res.Source)
	}
	if after := f.store.Len(); after != before {
		t.Fatalf("flat frame inserted into cache: %d -> %d", before, after)
	}
	if got := f.engine.Stats().SensorFaults()["frame-low-entropy"]; got != 1 {
		t.Fatalf("frame-low-entropy count = %d", got)
	}
	// A second identical flat frame still goes to the DNN: nothing was
	// cached or keyframed from the first.
	res, err = f.engine.Process(flat, movingWindow(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != metrics.SourceDNN {
		t.Fatalf("second flat frame source = %v, want dnn", res.Source)
	}
}

// Ablation: with guards off, quality faults pass straight through (and
// nil frames still error — nothing downstream can use them).
func TestSensorGuardsDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableSensorGuards = true
	f := newFixture(t, cfg, nil)
	proto, err := f.classes.Prototype(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.engine.Process(proto, stationaryWindow(0)); err != nil {
		t.Fatal(err)
	}
	// The stuck window now reaches the detector and fakes stillness.
	res, err := f.engine.Process(proto, stuckWindow(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != metrics.SourceIMU {
		t.Fatalf("unguarded stuck window source = %v, want imu", res.Source)
	}
	if total := f.engine.Stats().SensorFaultTotal(); total != 0 {
		t.Fatalf("guards disabled but %d faults counted", total)
	}
	if _, err := f.engine.Process(nil, nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("nil frame error = %v, want ErrBadFrame", err)
	}
}

// Regression: with guards off, a frame whose pixel buffer is shorter
// than its dimensions claim used to reach the video gate's diff kernel
// and panic there with an index out of range. It now differs maximally
// from every keyframe, is refused by feature extraction with an error,
// and leaves the keyframe library as it was.
func TestUnguardedShortPixelBufferDoesNotPanic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableSensorGuards = true
	f := newFixture(t, cfg, nil)
	proto, err := f.classes.Prototype(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.engine.Process(proto, movingWindow(0)); err != nil {
		t.Fatal(err) // stores a keyframe for the short frame to meet
	}
	for _, n := range []int{0, 100, len(proto.Pix) - 1, len(proto.Pix) + 1} {
		short := &vision.Image{W: proto.W, H: proto.H, Pix: make([]uint8, n)}
		copy(short.Pix, proto.Pix)
		if res, err := f.engine.Process(short, movingWindow(100*time.Millisecond)); err == nil {
			t.Fatalf("frame with %d of %d pixels served as %+v", n, len(proto.Pix), res)
		}
	}
	res, err := f.engine.Process(proto, movingWindow(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != metrics.SourceVideo {
		t.Fatalf("source after the malformed frames = %v, want video", res.Source)
	}
}

// During a DNN outage the engine keeps answering from the cache at
// halved confidence, trips the breaker, fast-fails while down, and
// recovers on its own once the model heals.
func TestWatchdogOutageDegradesAndRecovers(t *testing.T) {
	f, faulty := newFaultyFixture(t, DefaultConfig(), nil)

	// Warm the cache with one healthy recognition per class.
	protos := make([]*vision.Image, 3)
	for c := 0; c < 3; c++ {
		p, err := f.classes.Prototype(c)
		if err != nil {
			t.Fatal(err)
		}
		protos[c] = p
		res, err := f.engine.Process(p, movingWindow(time.Duration(c)*100*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		if res.Source != metrics.SourceDNN {
			t.Fatalf("warmup %d source = %v", c, res.Source)
		}
	}

	faulty.SetDown(true)
	for i := 0; i < 12; i++ {
		// Show classes the cache has never seen, so every gate misses
		// and the frame needs the (down) DNN.
		p, err := f.classes.Prototype(3 + i%2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.engine.Process(p, movingWindow(time.Duration(3+i)*100*time.Millisecond))
		if err != nil {
			t.Fatalf("outage frame %d: %v", i, err)
		}
		switch res.Source {
		case metrics.SourceFallback:
			if res.Degradation == DegradeNone {
				t.Fatalf("outage frame %d: fallback with DegradeNone", i)
			}
			if res.Confidence >= 1 {
				t.Fatalf("outage frame %d: undiscounted confidence %v", i, res.Confidence)
			}
		case metrics.SourceDNN:
			t.Fatalf("outage frame %d served by a down DNN", i)
		}
	}
	if f.engine.Stats().DegradedServeTotal() == 0 {
		t.Fatal("no degraded serves counted")
	}
	timeouts, _, trips, recoveries, fastFails := f.engine.Stats().WatchdogEvents()
	if trips != 1 {
		t.Fatalf("trips = %d, want 1", trips)
	}
	if fastFails == 0 {
		t.Fatal("breaker never fast-failed during outage")
	}
	if timeouts != 0 || recoveries != 0 {
		t.Fatalf("unexpected events: timeouts=%d recoveries=%d", timeouts, recoveries)
	}

	// Heal the model, let the cooldown elapse, and confirm the next
	// cache-missing frame probes through and recovers.
	faulty.SetDown(false)
	f.clock.Advance(time.Second)
	p5, err := f.classes.Prototype(5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.engine.Process(p5, movingWindow(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != metrics.SourceDNN || res.Degradation != DegradeNone {
		t.Fatalf("post-heal result = %+v, want fresh DNN", res)
	}
	if _, _, _, recoveries, _ := f.engine.Stats().WatchdogEvents(); recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", recoveries)
	}
}

// A wedged classifier call is cut off at the wall-clock deadline and
// the frame degrades to the last result instead of stalling. The
// request deadline caps the watchdog's 1 s call timeout.
func TestWatchdogTimeoutBoundsHungCall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RequestDeadline = 100 * time.Millisecond
	// Call 1 hangs far past the deadline.
	f, faulty := newFaultyFixture(t, cfg, dnn.FaultPlan{
		{From: 1, To: 2, Kind: dnn.FaultHang, Extra: 10 * time.Second},
	})
	defer faulty.Release()
	proto, err := f.classes.Prototype(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.engine.Process(proto, movingWindow(0)); err != nil {
		t.Fatal(err)
	}
	other, err := f.classes.Prototype(3)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := f.engine.Process(other, movingWindow(100*time.Millisecond))
	if err != nil {
		t.Fatalf("hung frame errored: %v", err)
	}
	if el := time.Since(start); el >= callTimeout {
		t.Fatalf("hung call stalled the frame for %v, past the deadline", el)
	}
	if res.Source != metrics.SourceFallback {
		t.Fatalf("hung frame source = %v, want fallback", res.Source)
	}
	if res.Latency < cfg.RequestDeadline/2 {
		t.Fatalf("timeout not charged: latency = %v", res.Latency)
	}
	if timeouts, _, _, _, _ := f.engine.Stats().WatchdogEvents(); timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", timeouts)
	}
}

// The call a timeout abandons keeps its goroutine until the wedged
// classifier returns — and not a moment longer.
func TestWatchdogAbandonedCallExitsOnRelease(t *testing.T) {
	check := testutil.LeakGuard(t, 0)
	cfg := DefaultConfig()
	cfg.RequestDeadline = 30 * time.Millisecond
	f, faulty := newFaultyFixture(t, cfg, dnn.FaultPlan{
		{From: 1, To: 2, Kind: dnn.FaultHang, Extra: time.Minute},
	})
	for c, class := range []int{4, 3} {
		proto, err := f.classes.Prototype(class)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.engine.Process(proto, movingWindow(time.Duration(c)*100*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	if timeouts, _, _, _, _ := f.engine.Stats().WatchdogEvents(); timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1 (no call was abandoned)", timeouts)
	}
	faulty.Release()
	check()
}

// A call the request deadline cuts short degrades its frame but is no
// classifier failure: more of them in a row than tripThreshold leave
// the breaker closed, and the next frame reaches the DNN.
func TestDeadlineCutCallsDoNotTripBreaker(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RequestDeadline = 30 * time.Millisecond
	f, faulty := newFaultyFixture(t, cfg, dnn.FaultPlan{
		{From: 1, To: 2 + tripThreshold, Kind: dnn.FaultHang, Extra: time.Minute},
	})
	defer faulty.Release()
	for c := 0; c <= tripThreshold+2; c++ {
		proto, err := f.classes.Prototype(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.engine.Process(proto, movingWindow(time.Duration(c)*100*time.Millisecond))
		if err != nil {
			t.Fatalf("frame %d: %v", c, err)
		}
		want := metrics.SourceFallback
		if c == 0 || c == tripThreshold+2 {
			want = metrics.SourceDNN
		}
		if res.Source != want {
			t.Fatalf("frame %d: source %v, want %v", c, res.Source, want)
		}
	}
	timeouts, _, trips, _, fastFails := f.engine.Stats().WatchdogEvents()
	if timeouts != tripThreshold+1 || trips != 0 || fastFails != 0 {
		t.Fatalf("timeouts=%d trips=%d fast-fails=%d, want %d/0/0", timeouts, trips, fastFails, tripThreshold+1)
	}
}

// A transient error clears on the watchdog's immediate retry.
func TestWatchdogRetriesTransientError(t *testing.T) {
	f, _ := newFaultyFixture(t, Config{Mode: ModeNoCache}, dnn.FaultPlan{
		{From: 0, To: 1, Kind: dnn.FaultError},
	})
	proto, err := f.classes.Prototype(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.engine.Process(proto, nil)
	if err != nil {
		t.Fatalf("transient error not retried: %v", err)
	}
	if res.Source != metrics.SourceDNN {
		t.Fatalf("source = %v", res.Source)
	}
	if res.Latency < retryBackoff {
		t.Fatalf("backoff not charged: latency = %v", res.Latency)
	}
	if _, retries, trips, _, _ := f.engine.Stats().WatchdogEvents(); retries != 1 || trips != 0 {
		t.Fatalf("retries=%d trips=%d", retries, trips)
	}
}

// The naive-skip baseline has no cache: a due inference during an
// outage repeats the last answer at reduced confidence.
func TestNaiveSkipDegradesToLastResult(t *testing.T) {
	const streak = 20
	f, faulty := newFaultyFixture(t, Config{Mode: ModeNaiveSkip, MaxReuseStreak: streak}, nil)
	proto, err := f.classes.Prototype(0)
	if err != nil {
		t.Fatal(err)
	}
	first, err := f.engine.Process(proto, nil)
	if err != nil {
		t.Fatal(err)
	}
	faulty.SetDown(true)
	sawFallback := false
	for i := 0; i <= streak; i++ {
		res, err := f.engine.Process(proto, nil)
		if err != nil {
			t.Fatalf("outage frame %d: %v", i, err)
		}
		if res.Label != first.Label {
			t.Fatalf("outage frame %d label = %q", i, res.Label)
		}
		if res.Source == metrics.SourceFallback {
			sawFallback = true
			if res.Degradation != DegradeLastResult {
				t.Fatalf("naive-skip degradation = %v", res.Degradation)
			}
		}
	}
	if !sawFallback {
		t.Fatal("no due inference degraded during the outage")
	}
}

// With an empty cache, no last result, and a down DNN there is nothing
// left to serve: the error carries the classifier's failure, and names
// the classifier down from the third consecutive failure on — two do
// not trip the breaker, three do.
func TestOutageWithNothingToServeErrors(t *testing.T) {
	f, faulty := newFaultyFixture(t, DefaultConfig(), nil)
	faulty.SetDown(true)
	proto, err := f.classes.Prototype(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= tripThreshold; i++ {
		_, err := f.engine.Process(proto, movingWindow(0))
		if err == nil {
			t.Fatalf("cold outage frame %d served", i)
		}
		tripped, wantTrips := i == tripThreshold, 0
		if tripped {
			wantTrips = 1
		}
		_, _, trips, _, _ := f.engine.Stats().WatchdogEvents()
		if errors.Is(err, ErrClassifierDown) != tripped || trips != wantTrips {
			t.Fatalf("failure %d: error %v, %d trips; want the breaker open only from failure %d", i, err, trips, tripThreshold)
		}
	}
	// The breaker is now open: the next attempt fast-fails.
	if _, err := f.engine.Process(proto, movingWindow(100*time.Millisecond)); !errors.Is(err, ErrClassifierDown) {
		t.Fatalf("fast-fail error = %v, want ErrClassifierDown", err)
	}
	if _, _, _, _, fastFails := f.engine.Stats().WatchdogEvents(); fastFails != 1 {
		t.Fatalf("fastFails = %d, want 1", fastFails)
	}
}

// An open breaker fast-fails without touching the classifier until the
// 500 ms cooldown has elapsed on the engine clock: at cooldown − 1 ns
// the call still fast-fails, at the cooldown it probes.
func TestWatchdogCooldownBoundary(t *testing.T) {
	classes, err := vision.NewClassSet(2, 48, 48, 77)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := dnn.NewClassifier(perfectProfile(), classes, 1)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := dnn.NewFaultyClassifier(inner, nil)
	if err != nil {
		t.Fatal(err)
	}
	faulty.SetDown(true)
	clock := simclock.NewVirtual(time.Unix(0, 0))
	stats := metrics.NewSessionStats()
	w := newWatchdog(false, faulty, clock, stats)
	im, err := classes.Prototype(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tripThreshold; i++ {
		w.infer(im, time.Time{}, jitterSeedFor(0))
	}
	if _, _, trips, _, _ := stats.WatchdogEvents(); trips != 1 {
		t.Fatalf("trips = %d after %d failures, want 1", trips, tripThreshold)
	}
	calls := faulty.Calls()
	clock.Advance(cooldown - time.Nanosecond)
	if _, _, err := w.infer(im, time.Time{}, jitterSeedFor(0)); !errors.Is(err, ErrClassifierDown) || faulty.Calls() != calls {
		t.Fatalf("at cooldown-1ns: error %v, %d classifier calls; want a fast-fail", err, faulty.Calls()-calls)
	}
	clock.Advance(time.Nanosecond)
	faulty.SetDown(false)
	if _, _, err := w.infer(im, time.Time{}, jitterSeedFor(0)); err != nil || faulty.Calls() != calls+1 {
		t.Fatalf("at cooldown: error %v, %d classifier calls; want one probe", err, faulty.Calls()-calls)
	}
	if _, _, _, recoveries, fastFails := stats.WatchdogEvents(); recoveries != 1 || fastFails != 1 {
		t.Fatalf("recoveries = %d, fast-fails = %d, want 1 and 1", recoveries, fastFails)
	}
}

func TestDegradationLevelStrings(t *testing.T) {
	if DegradeNone.String() != "none" || DegradeCacheOnly.String() != "cache-only" ||
		DegradeLastResult.String() != "last-result" {
		t.Fatal("degradation names wrong")
	}
	if got := DegradationLevel(9).String(); got != "DegradationLevel(9)" {
		t.Fatalf("unknown level string %q", got)
	}
}
