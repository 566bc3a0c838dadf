package core

import (
	"testing"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/dnn"
	"approxcache/internal/imu"
	"approxcache/internal/lsh"
	"approxcache/internal/metrics"
	"approxcache/internal/p2p"
	"approxcache/internal/simclock"
	"approxcache/internal/simnet"
	"approxcache/internal/trace"
	"approxcache/internal/vision"
)

// fixture bundles one device's engine with its substrates.
type fixture struct {
	engine  *Engine
	clock   *simclock.Virtual
	store   *cachestore.Store
	classes *vision.ClassSet
}

func perfectProfile() dnn.Profile {
	p := dnn.MobileNetV2
	p.Top1Accuracy = 1.0
	p.LatencyJitter = 0
	return p
}

func newFixture(t *testing.T, cfg Config, peers *p2p.Client) *fixture {
	t.Helper()
	classes, err := vision.NewClassSet(6, 48, 48, 77)
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewVirtual(time.Unix(0, 0))
	classifier, err := dnn.NewClassifier(perfectProfile(), classes, 1)
	if err != nil {
		t.Fatal(err)
	}
	var store *cachestore.Store
	if cfg.Mode == ModeApprox {
		dim := cfg.Extractor.Dim()
		idx, err := lsh.NewHyperplane(dim, 12, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		store, err = cachestore.New(cachestore.Config{Capacity: 128}, idx, clock)
		if err != nil {
			t.Fatal(err)
		}
	}
	eng, err := New(cfg, Deps{Clock: clock, Classifier: classifier, Store: store, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{engine: eng, clock: clock, store: store, classes: classes}
}

// stationaryWindow returns a quiet IMU window ending at off.
func stationaryWindow(off time.Duration) []imu.Sample {
	var out []imu.Sample
	for i := 0; i < 10; i++ {
		out = append(out, imu.Sample{Offset: off + time.Duration(i)*10*time.Millisecond})
	}
	return out
}

// movingWindow returns a high-rotation IMU window ending at off.
func movingWindow(off time.Duration) []imu.Sample {
	var out []imu.Sample
	for i := 0; i < 10; i++ {
		out = append(out, imu.Sample{
			Offset: off + time.Duration(i)*10*time.Millisecond,
			Accel:  [3]float64{2, 0, 0},
			Gyro:   [3]float64{0, 1.5, 0},
		})
	}
	return out
}

func TestModeString(t *testing.T) {
	if ModeNoCache.String() != "no-cache" || ModeExactCache.String() != "exact-cache" ||
		ModeApprox.String() != "approx-cache" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatal("unknown mode string wrong")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		{Mode: Mode(42)},
		func() Config { c := DefaultConfig(); c.Extractor = nil; return c }(),
		func() Config { c := DefaultConfig(); c.Vote.K = 0; return c }(),
		func() Config { c := DefaultConfig(); c.IMU.Window = 0; return c }(),
		func() Config { c := DefaultConfig(); c.Diff.Threshold = 0; return c }(),
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// Baseline modes don't need extractor/vote/gates.
	if err := (Config{Mode: ModeNoCache}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	classes, err := vision.NewClassSet(2, 32, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	classifier, err := dnn.NewClassifier(perfectProfile(), classes, 1)
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewVirtual(time.Unix(0, 0))
	if _, err := New(Config{Mode: ModeNoCache}, Deps{Classifier: classifier}); err == nil {
		t.Fatal("nil clock accepted")
	}
	if _, err := New(Config{Mode: ModeNoCache}, Deps{Clock: clock}); err == nil {
		t.Fatal("nil classifier accepted")
	}
	if _, err := New(DefaultConfig(), Deps{Clock: clock, Classifier: classifier}); err == nil {
		t.Fatal("approx mode without store accepted")
	}
}

func TestProcessNilFrame(t *testing.T) {
	f := newFixture(t, Config{Mode: ModeNoCache}, nil)
	if _, err := f.engine.Process(nil, nil); err == nil {
		t.Fatal("nil frame accepted")
	}
}

func TestNoCacheModeAlwaysInfers(t *testing.T) {
	f := newFixture(t, Config{Mode: ModeNoCache}, nil)
	proto, err := f.classes.Prototype(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		res, err := f.engine.ProcessWithTruth(proto, nil, dnn.LabelOf(0))
		if err != nil {
			t.Fatal(err)
		}
		if res.Source != metrics.SourceDNN {
			t.Fatalf("frame %d source = %v", i, res.Source)
		}
		if res.Label != dnn.LabelOf(0) {
			t.Fatalf("label = %q", res.Label)
		}
	}
	if hr := f.engine.Stats().HitRate(); hr != 0 {
		t.Fatalf("no-cache hit rate = %v", hr)
	}
	if acc := f.engine.Stats().Accuracy(); acc != 1 {
		t.Fatalf("accuracy = %v", acc)
	}
	// Clock advanced by ~5 inferences.
	if f.clock.Now().Sub(time.Unix(0, 0)) < 5*perfectProfile().MeanLatency/2 {
		t.Fatal("clock did not absorb inference latency")
	}
}

func TestExactCacheHitsIdenticalFramesOnly(t *testing.T) {
	f := newFixture(t, Config{Mode: ModeExactCache}, nil)
	proto, err := f.classes.Prototype(1)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := f.engine.Process(proto, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Source != metrics.SourceDNN {
		t.Fatalf("first frame source = %v", res1.Source)
	}
	res2, err := f.engine.Process(proto, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Source != metrics.SourceLocal {
		t.Fatalf("identical frame source = %v", res2.Source)
	}
	if res2.Latency >= res1.Latency/10 {
		t.Fatalf("exact hit latency %v not ≪ miss %v", res2.Latency, res1.Latency)
	}
	// A perturbed frame of the same class misses the exact cache.
	other := proto.Clone()
	other.Pix[0] = vision.MaxLevel - other.Pix[0]
	res3, err := f.engine.Process(other, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Source != metrics.SourceDNN {
		t.Fatalf("perturbed frame source = %v", res3.Source)
	}
}

func TestNaiveSkipMode(t *testing.T) {
	const streak = 20
	f := newFixture(t, Config{Mode: ModeNaiveSkip, MaxReuseStreak: streak}, nil)
	p0, err := f.classes.Prototype(0)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := f.classes.Prototype(1)
	if err != nil {
		t.Fatal(err)
	}
	// One frame in streak+1 infers, the rest reuse, whatever the scene:
	// p0 once, then p1.
	var sources, want []metrics.Source
	for i := 0; i <= 2*(streak+1); i++ {
		im := p1
		if i == 0 {
			im = p0
		}
		res, err := f.engine.Process(im, nil)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, res.Source)
		if i%(streak+1) == 0 {
			want = append(want, metrics.SourceDNN)
		} else {
			want = append(want, metrics.SourceVideo)
		}
	}
	for i := range want {
		if sources[i] != want[i] {
			t.Fatalf("frame %d source = %v, want %v (all: %v)",
				i, sources[i], want[i], sources)
		}
	}
}

func TestNaiveSkipBlindReuseIsWrongAcrossScenes(t *testing.T) {
	f := newFixture(t, Config{Mode: ModeNaiveSkip, MaxReuseStreak: 20}, nil)
	p0, err := f.classes.Prototype(0)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := f.classes.Prototype(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.engine.ProcessWithTruth(p0, nil, dnn.LabelOf(0)); err != nil {
		t.Fatal(err)
	}
	// Scene changes but naive skip reuses the stale label.
	res, err := f.engine.ProcessWithTruth(p1, nil, dnn.LabelOf(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != metrics.SourceVideo {
		t.Fatalf("source = %v, want blind reuse", res.Source)
	}
	if res.Label == dnn.LabelOf(1) {
		t.Fatal("blind reuse should serve the stale label here")
	}
	if acc := f.engine.Stats().Accuracy(); acc != 0.5 {
		t.Fatalf("accuracy = %v, want 0.5", acc)
	}
}

func TestApproxIMUGateReuses(t *testing.T) {
	f := newFixture(t, DefaultConfig(), nil)
	proto, err := f.classes.Prototype(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.engine.ProcessWithTruth(proto, stationaryWindow(0), dnn.LabelOf(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != metrics.SourceDNN {
		t.Fatalf("cold start source = %v", res.Source)
	}
	for i := 1; i <= 5; i++ {
		res, err = f.engine.ProcessWithTruth(proto,
			stationaryWindow(time.Duration(i)*100*time.Millisecond), dnn.LabelOf(2))
		if err != nil {
			t.Fatal(err)
		}
		if res.Source != metrics.SourceIMU {
			t.Fatalf("frame %d source = %v, want imu", i, res.Source)
		}
		if res.Label != dnn.LabelOf(2) {
			t.Fatalf("label = %q", res.Label)
		}
		if res.Latency > 5*time.Millisecond {
			t.Fatalf("imu hit latency = %v", res.Latency)
		}
	}
	counts := f.engine.Stats().CountBySource()
	if counts[metrics.SourceIMU] != 5 || counts[metrics.SourceDNN] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestApproxVideoGateWhenIMUDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableIMUGate = true
	f := newFixture(t, cfg, nil)
	proto, err := f.classes.Prototype(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.engine.Process(proto, stationaryWindow(0)); err != nil {
		t.Fatal(err)
	}
	res, err := f.engine.Process(proto, stationaryWindow(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != metrics.SourceVideo {
		t.Fatalf("source = %v, want video", res.Source)
	}
}

// TestAblationTogglesChangeSourceMix replays the stationary-heavy
// workload with and without the inertial gate: the gate serves frames
// when on, none when off, and the video gate absorbs what it served.
func TestAblationTogglesChangeSourceMix(t *testing.T) {
	spec := trace.StationaryHeavy(150, 3)
	full := replayWorkload(t, DefaultConfig(), spec, nil, cachestore.Config{}).CountBySource()
	cfg := DefaultConfig()
	cfg.DisableIMUGate = true
	noIMU := replayWorkload(t, cfg, spec, nil, cachestore.Config{}).CountBySource()
	if full[metrics.SourceIMU] == 0 {
		t.Fatal("full pipeline produced no IMU hits on stationary-heavy workload")
	}
	if noIMU[metrics.SourceIMU] != 0 {
		t.Fatal("disabled IMU gate still produced IMU hits")
	}
	if noIMU[metrics.SourceVideo] <= full[metrics.SourceVideo] {
		t.Fatalf("video gate did not absorb IMU-gated frames: full %v, no-imu %v", full, noIMU)
	}
}

// TestVoteOverride runs the panning sweep, whose scene changes get past
// the inertial and video gates to the kNN vote: a near-zero radius
// accepts fewer local hits than the default vote.
func TestVoteOverride(t *testing.T) {
	spec := trace.StandardSpecs(200, 3)[3]
	store := cachestore.Config{Capacity: 256, Policy: cachestore.CostAware}
	strict := DefaultConfig()
	strict.Vote = lsh.VoteConfig{K: 4, MaxDistance: 0.01, DominanceRatio: 2, MinVotes: 1}
	s := replayWorkload(t, strict, spec, nil, store).CountBySource()[metrics.SourceLocal]
	l := replayWorkload(t, DefaultConfig(), spec, nil, store).CountBySource()[metrics.SourceLocal]
	if s >= l {
		t.Fatalf("strict vote local hits %d not below default %d", s, l)
	}
}

func TestApproxLocalCacheAcrossMovement(t *testing.T) {
	// Both cheap gates disabled: similar frames must hit the
	// feature-space cache instead.
	cfg := DefaultConfig()
	cfg.DisableIMUGate = true
	cfg.DisableVideoGate = true
	f := newFixture(t, cfg, nil)
	proto, err := f.classes.Prototype(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.engine.Process(proto, movingWindow(0)); err != nil {
		t.Fatal(err)
	}
	res, err := f.engine.Process(proto, movingWindow(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != metrics.SourceLocal {
		t.Fatalf("source = %v, want local", res.Source)
	}
	if f.store.Len() != 1 {
		t.Fatalf("store len = %d", f.store.Len())
	}
}

func TestApproxSceneChangeFallsThrough(t *testing.T) {
	f := newFixture(t, DefaultConfig(), nil)
	p0, err := f.classes.Prototype(0)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := f.classes.Prototype(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.engine.ProcessWithTruth(p0, stationaryWindow(0), dnn.LabelOf(0)); err != nil {
		t.Fatal(err)
	}
	// New scene while moving: all reuse gates must fail, DNN runs.
	res, err := f.engine.ProcessWithTruth(p1, movingWindow(100*time.Millisecond), dnn.LabelOf(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != metrics.SourceDNN {
		t.Fatalf("scene change source = %v, want dnn", res.Source)
	}
	if res.Label != dnn.LabelOf(1) {
		t.Fatalf("label = %q", res.Label)
	}
	if acc := f.engine.Stats().Accuracy(); acc != 1 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestKeyframeLibraryServesPanBack(t *testing.T) {
	// Scene A, then B, then back to A — all while moving (IMU gate
	// off the table). With the default 4-keyframe library the return
	// to A is a video-gate hit; with capacity 1 it is not.
	run := func(capacity int) metrics.Source {
		cfg := DefaultConfig()
		cfg.KeyframeCapacity = capacity
		f := newFixture(t, cfg, nil)
		p0, err := f.classes.Prototype(0)
		if err != nil {
			t.Fatal(err)
		}
		p1, err := f.classes.Prototype(1)
		if err != nil {
			t.Fatal(err)
		}
		for i, im := range []*vision.Image{p0, p1} {
			if _, err := f.engine.Process(im, movingWindow(time.Duration(i)*time.Second)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := f.engine.Process(p0, movingWindow(2*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		if res.Label != dnn.LabelOf(0) {
			t.Fatalf("pan-back label = %q", res.Label)
		}
		return res.Source
	}
	if src := run(4); src != metrics.SourceVideo {
		t.Fatalf("library pan-back source = %v, want video", src)
	}
	if src := run(1); src == metrics.SourceVideo {
		t.Fatal("single keyframe should not remember scene A")
	}
}

// newPeerCluster builds n peer services on a simnet and returns a
// client connected to all of them, and the services' stores.
func newPeerCluster(t *testing.T, n int, extractorDim int) (*p2p.Client, []*cachestore.Store) {
	t.Helper()
	net, err := simnet.New(simnet.LinkProfile{Latency: 5 * time.Millisecond}, 3)
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewVirtual(time.Unix(0, 0))
	var stores []*cachestore.Store
	var names []string
	for i := 0; i < n; i++ {
		idx, err := lsh.NewExact(extractorDim)
		if err != nil {
			t.Fatal(err)
		}
		st, err := cachestore.New(cachestore.Config{Capacity: 64}, idx, clock)
		if err != nil {
			t.Fatal(err)
		}
		name := "peer-" + string(rune('a'+i))
		svc, err := p2p.NewService(p2p.DefaultServiceConfig(name), st)
		if err != nil {
			t.Fatal(err)
		}
		if err := p2p.RegisterService(net, svc); err != nil {
			t.Fatal(err)
		}
		stores = append(stores, st)
		names = append(names, name)
	}
	tr, err := p2p.NewSimnetTransport("device", net)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := p2p.NewClient(p2p.DefaultClientConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetPeers(names)
	return cl, stores
}

func TestApproxPeerHitAndAdoption(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableIMUGate = true
	cfg.DisableVideoGate = true
	client, stores := newPeerCluster(t, 1, cfg.Extractor.Dim())
	f := newFixture(t, cfg, client)
	proto, err := f.classes.Prototype(5)
	if err != nil {
		t.Fatal(err)
	}
	// Preload the peer with this scene's feature vector.
	vec, err := cfg.Extractor.Extract(proto)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stores[0].Insert(vec, "class-5", 0.95, "dnn", 120*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	res, err := f.engine.ProcessWithTruth(proto, movingWindow(0), dnn.LabelOf(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != metrics.SourcePeer {
		t.Fatalf("source = %v, want peer", res.Source)
	}
	if res.PeerName != "peer-a" {
		t.Fatalf("peer name = %q", res.PeerName)
	}
	if res.Latency < 10*time.Millisecond || res.Latency > 60*time.Millisecond {
		t.Fatalf("peer hit latency = %v", res.Latency)
	}
	// The answer was adopted locally: the next similar frame hits the
	// local cache without network traffic.
	res, err = f.engine.ProcessWithTruth(proto, movingWindow(time.Second), dnn.LabelOf(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != metrics.SourceLocal {
		t.Fatalf("post-adoption source = %v, want local", res.Source)
	}
	q, h := f.engine.Stats().PeerQueries()
	if q != 1 || h != 1 {
		t.Fatalf("peer queries = %d/%d", h, q)
	}
}

func TestApproxGossipWarmsPeers(t *testing.T) {
	cfg := DefaultConfig()
	client, stores := newPeerCluster(t, 2, cfg.Extractor.Dim())
	f := newFixture(t, cfg, client)
	proto, err := f.classes.Prototype(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.engine.Process(proto, movingWindow(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != metrics.SourceDNN {
		t.Fatalf("source = %v", res.Source)
	}
	for i, st := range stores {
		if st.Len() != 1 {
			t.Fatalf("peer %d not warmed by gossip", i)
		}
	}
}

func TestHeadlineLatencyReduction(t *testing.T) {
	// The poster's claim on its best-case workload: approximate
	// caching cuts average latency by up to ~94%. Run the
	// stationary-heavy workload through no-cache and approx engines
	// and compare.
	spec := trace.StationaryHeavy(300, 5)
	w, err := trace.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode Mode) *metrics.SessionStats {
		cfg := DefaultConfig()
		cfg.Mode = mode
		clock := simclock.NewVirtual(time.Unix(0, 0))
		classifier, err := dnn.NewClassifier(dnn.MobileNetV2, w.Classes, 9)
		if err != nil {
			t.Fatal(err)
		}
		var store *cachestore.Store
		if mode == ModeApprox {
			idx, err := lsh.NewHyperplane(cfg.Extractor.Dim(), 12, 4, 2)
			if err != nil {
				t.Fatal(err)
			}
			store, err = cachestore.New(cachestore.Config{Capacity: 256}, idx, clock)
			if err != nil {
				t.Fatal(err)
			}
		}
		eng, err := New(cfg, Deps{Clock: clock, Classifier: classifier, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		prev := time.Duration(0)
		for _, fr := range w.Frames {
			win := w.IMUWindow(prev, fr.Offset)
			prev = fr.Offset
			if _, err := eng.ProcessWithTruth(fr.Image, win, dnn.LabelOf(fr.Class)); err != nil {
				t.Fatal(err)
			}
		}
		return eng.Stats()
	}
	base := run(ModeNoCache)
	approx := run(ModeApprox)
	baseMean := base.Latency().Mean()
	approxMean := approx.Latency().Mean()
	reduction := 1 - float64(approxMean)/float64(baseMean)
	if reduction < 0.75 {
		t.Fatalf("latency reduction = %.1f%%, want >= 75%% (base %v, approx %v)",
			reduction*100, baseMean, approxMean)
	}
	if hr := approx.HitRate(); hr < 0.8 {
		t.Fatalf("hit rate = %v", hr)
	}
	// "Minimal loss of recognition accuracy": within a few points of
	// the no-cache accuracy.
	if base.Accuracy()-approx.Accuracy() > 0.08 {
		t.Fatalf("accuracy dropped %v -> %v", base.Accuracy(), approx.Accuracy())
	}
}

// lastResult is the engine's last result, read under its lock as the
// ladder reads it.
func (e *Engine) lastResult() (Result, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.last, e.hasLast
}

func TestLastResult(t *testing.T) {
	f := newFixture(t, Config{Mode: ModeNoCache}, nil)
	if _, ok := f.engine.lastResult(); ok {
		t.Fatal("fresh engine has a last result")
	}
	proto, err := f.classes.Prototype(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.engine.Process(proto, nil); err != nil {
		t.Fatal(err)
	}
	res, ok := f.engine.lastResult()
	if !ok || res.Label == "" {
		t.Fatalf("last result = %+v ok=%v", res, ok)
	}
}

// TestSetPeersConcurrentWithProcess swaps the peer client while frames
// are in flight. Run under -race this pins down that SetPeers and the
// P2P gate's client snapshot never race.
func TestSetPeersConcurrentWithProcess(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableIMUGate = true
	cfg.DisableVideoGate = true
	client, _ := newPeerCluster(t, 2, cfg.Extractor.Dim())
	f := newFixture(t, cfg, nil)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if i%2 == 0 {
				f.engine.SetPeers(client)
			} else {
				f.engine.SetPeers(nil)
			}
		}
	}()
	for i := 0; i < 100; i++ {
		proto, err := f.classes.Prototype(i % 6)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.engine.Process(proto, nil); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}
