package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/dnn"
	"approxcache/internal/feature"
	"approxcache/internal/imu"
	"approxcache/internal/lsh"
	"approxcache/internal/metrics"
	"approxcache/internal/simclock"
	"approxcache/internal/trace"
	"approxcache/internal/video"
	"approxcache/internal/vision"
)

// hideWithin forwards a store through the bare interface, hiding its
// radius search: an engine over it takes the NearestInto fallback on
// every lookup and cannot tell the index a radius.
type hideWithin struct{ cachestore.Interface }

// countingStore counts the lookups an engine issues, by either method.
type countingStore struct {
	*cachestore.Store
	lookups int
}

func (c *countingStore) NearestInto(q feature.Vector, k int, dst []lsh.Neighbor) ([]lsh.Neighbor, error) {
	c.lookups++
	return c.Store.NearestInto(q, k, dst)
}

func (c *countingStore) NearestWithinInto(q feature.Vector, k int, radius float64, dst []lsh.Neighbor) ([]lsh.Neighbor, error) {
	c.lookups++
	return c.Store.NearestWithinInto(q, k, radius, dst)
}

// diffFrame is one input of a differential stream.
type diffFrame struct {
	img   *vision.Image
	win   []imu.Sample
	truth string
}

// diffRun is one engine's side of a differential: every Result in
// order, the final store contents, the repair, audit and lookup counts,
// and the scoreboard's sensor faults, energy and accuracy.
type diffRun struct {
	results  []Result
	entries  []cachestore.Entry
	repairs  int
	audits   int
	refuted  int
	lookups  int
	faults   map[string]int
	energy   float64
	accuracy float64
}

// runDiffSide plays frames through a fresh engine over a fresh store.
// hide wraps the store in hideWithin; setup runs once after
// construction and hook before every frame (both may be nil).
func runDiffSide(t *testing.T, cfg Config, classes *vision.ClassSet, capacity int, frames []diffFrame,
	hide bool, setup, hook func(*Engine)) diffRun {
	t.Helper()
	clock := simclock.NewVirtual(time.Unix(0, 0))
	// A sloppy model: wrong labels get cached, later lookups land among
	// mixed labels, votes fail, and the fresh inference repairs them.
	profile := dnn.MobileNetV2
	profile.Top1Accuracy = 0.7
	classifier, err := dnn.NewClassifier(profile, classes, 7)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := lsh.NewHyperplane(cfg.Extractor.Dim(), 12, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := cachestore.New(cachestore.Config{Capacity: capacity, Policy: cachestore.CostAware}, idx, clock)
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingStore{Store: raw}
	var store cachestore.Interface = counted
	if hide {
		store = hideWithin{counted}
	}
	eng, err := New(cfg, Deps{Clock: clock, Classifier: classifier, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if _, has := store.(interface {
		NearestWithinInto(feature.Vector, int, float64, []lsh.Neighbor) ([]lsh.Neighbor, error)
	}); has == hide {
		t.Fatalf("hide=%v but the store's radius search is visible=%v", hide, has)
	}
	if setup != nil {
		setup(eng)
	}
	run := diffRun{results: make([]Result, 0, len(frames))}
	for i, f := range frames {
		if hook != nil {
			hook(eng)
		}
		res, err := eng.ProcessWithTruth(f.img, f.win, f.truth)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		run.results = append(run.results, res)
	}
	eng.DrainAudits()
	run.entries = raw.Snapshot()
	sort.Slice(run.entries, func(i, j int) bool { return run.entries[i].ID < run.entries[j].ID })
	run.repairs = eng.Stats().Repairs()
	run.audits, run.refuted = eng.Stats().Audits()
	run.lookups = counted.lookups
	run.faults = eng.Stats().SensorFaults()
	run.energy, run.accuracy = eng.Stats().EnergyMJ(), eng.Stats().Accuracy()
	return run
}

// diffEngines runs the stream through an engine that tells the store
// its radius (and reuses its lookup for repair) and one that cannot,
// and requires identical results, store contents, repair counts and
// lookup counts (repair reuses the frame's lookup either way). It
// returns the direct side.
func diffEngines(t *testing.T, cfg Config, classes *vision.ClassSet, capacity int, frames []diffFrame,
	setup, hook func(*Engine)) diffRun {
	t.Helper()
	direct := runDiffSide(t, cfg, classes, capacity, frames, false, setup, hook)
	hidden := runDiffSide(t, cfg, classes, capacity, frames, true, setup, hook)
	for i := range direct.results {
		if direct.results[i] != hidden.results[i] {
			t.Fatalf("frame %d: direct %+v, hidden %+v", i, direct.results[i], hidden.results[i])
		}
	}
	if direct.repairs != hidden.repairs {
		t.Fatalf("repairs: direct %d, hidden %d", direct.repairs, hidden.repairs)
	}
	if !reflect.DeepEqual(direct.entries, hidden.entries) {
		t.Fatalf("final store contents differ: direct %d entries, hidden %d", len(direct.entries), len(hidden.entries))
	}
	if direct.lookups != hidden.lookups {
		t.Fatalf("lookups: direct %d, hidden %d", direct.lookups, hidden.lookups)
	}
	return direct
}

// churnStream renders independent photos of a vocabulary much larger
// than the cache: half the frames miss, repair, insert and evict.
func churnStream(t *testing.T, n int) (*vision.ClassSet, []diffFrame) {
	t.Helper()
	classes, err := vision.NewClassSet(48, 48, 48, 5)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := video.Generate(video.StreamConfig{
		FPS:       15,
		Segments:  []video.Segment{{Regime: imu.Walking, Frames: n}},
		Perturb:   vision.DefaultPerturbation(),
		SceneHold: 1,
		Seed:      9,
	}, classes)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]diffFrame, len(fs))
	for i, f := range fs {
		frames[i] = diffFrame{img: f.Image, truth: dnn.LabelOf(f.Class)}
	}
	return classes, frames
}

// traceFrames pairs each frame of a generated workload with the IMU
// samples received since the previous one.
func traceFrames(w *trace.Workload) []diffFrame {
	frames := make([]diffFrame, len(w.Frames))
	prev := time.Duration(0)
	for i, fr := range w.Frames {
		frames[i] = diffFrame{img: fr.Image, win: w.IMUWindow(prev, fr.Offset), truth: dnn.LabelOf(fr.Class)}
		prev = fr.Offset
	}
	return frames
}

// TestRadiusLookupDifferentialVideoTraces: the four standard IMU+video
// traces (the E1 workload) give the same frame-by-frame results whether
// or not the engine can bound its lookups by radius.
func TestRadiusLookupDifferentialVideoTraces(t *testing.T) {
	for _, spec := range trace.StandardSpecs(240, 3) {
		w, err := trace.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		diffEngines(t, DefaultConfig(), w.Classes, 128, traceFrames(w), nil, nil)
	}
}

// TestRadiusLookupDifferentialChurn covers the photo-churn shape and
// each condition under which repair must not reuse the frame's lookup:
// revalidation frames (no lookup ran), a quality scale below 0.5 (the
// lookup's radius was smaller than repair's) and brownout k=1 (the
// lookup asked for fewer neighbours than repair).
func TestRadiusLookupDifferentialChurn(t *testing.T) {
	classes, frames := churnStream(t, 700)
	// Plant two differently mislabelled entries on every class prototype:
	// a lookup landing there finds no dominant label, falls to the DNN,
	// and the fresh label contradicts both.
	poison := func(e *Engine) {
		for c := 0; c < classes.NumClasses(); c++ {
			proto, err := classes.Prototype(c)
			if err != nil {
				t.Fatal(err)
			}
			vec, err := e.cfg.Extractor.Extract(proto)
			if err != nil {
				t.Fatal(err)
			}
			for _, wrong := range []string{"wrong-a", "wrong-b"} {
				if _, err := e.deps.Store.Insert(vec, wrong, 0.9, "dnn", time.Millisecond); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// check runs one variant. Every frame the IMU and video gates pass on
	// looks the cache up once — the main lookup, or repair's own scan on
	// a revalidation. reuse says whether repair may take that one lookup
	// for its own (then there are no others) or must scan again.
	check := func(t *testing.T, cfg Config, setup, hook func(*Engine), reuse bool) diffRun {
		t.Helper()
		both := func(e *Engine) {
			poison(e)
			if setup != nil {
				setup(e)
			}
		}
		run := diffEngines(t, cfg, classes, 128, frames, both, hook)
		if run.repairs == 0 {
			t.Fatal("stream never repaired")
		}
		reached := 0
		for _, r := range run.results {
			if r.Source != metrics.SourceIMU && r.Source != metrics.SourceVideo {
				reached++
			}
		}
		if reuse && run.lookups != reached {
			t.Fatalf("%d lookups for %d frames past the cheap gates: repair scanned again", run.lookups, reached)
		}
		if !reuse && run.lookups <= reached {
			t.Fatalf("%d lookups for %d frames past the cheap gates: repair never scanned for itself", run.lookups, reached)
		}
		return run
	}

	t.Run("default", func(t *testing.T) {
		check(t, DefaultConfig(), nil, nil, true)
	})

	t.Run("revalidation", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.MaxReuseStreak = 1 // every hit is followed by a forced inference
		check(t, cfg, nil, nil, true)
	})

	// The scale variants switch sampling off, so that the only lookups
	// are the frame path's and the count above holds.
	pinnedScale := func(scale float64) (Config, func(*Engine)) {
		cfg := DefaultConfig()
		cfg.Quality = QualityConfig{Enabled: true, Synchronous: true, AuditSampleEvery: 1 << 30}
		return cfg, func(e *Engine) { e.quality.setScale(scale) }
	}

	t.Run("quality-scale-below-half", func(t *testing.T) {
		cfg, pin := pinnedScale(0.4)
		check(t, cfg, pin, nil, false)
	})

	t.Run("quality-scale-at-half", func(t *testing.T) {
		cfg, pin := pinnedScale(0.5)
		check(t, cfg, pin, nil, true)
	})

	t.Run("quality-audits-heal", func(t *testing.T) {
		// Audits on: refuted ones run healAfterRefute's radius search.
		cfg := DefaultConfig()
		cfg.Quality = QualityConfig{Enabled: true, Synchronous: true, AuditSampleEvery: 2}
		run := diffEngines(t, cfg, classes, 128, frames, poison, nil)
		if run.refuted == 0 {
			t.Fatal("no audit was refuted: heal never ran")
		}
	})

	t.Run("brownout-first-candidate", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Admission = true
		// Brown the limiter out before the first frame: the run starts at
		// first-candidate, and calm completions lower it again only after
		// 64 of them per rung.
		raise := func(e *Engine) { brownOut(t, e.ctrl) }
		check(t, cfg, raise, nil, false)
	})

	t.Run("dnn-outage-degraded-serving", func(t *testing.T) {
		// With the accelerator held by someone else every miss is shed to
		// the degradation ladder, whose cache rung searches at twice the
		// vote radius.
		cfg := DefaultConfig()
		cfg.Admission = true
		const warm = 300
		hold := func(e *Engine) {
			if e.Stats().Frames() != warm {
				return
			}
			held := 0
			for e.ctrl.TryAcquire() {
				held++
			}
			if held == 0 {
				t.Fatal("limiter refused every holding slot")
			}
		}
		run := diffEngines(t, cfg, classes, 128, frames, poison, hold)
		degraded := 0
		for _, r := range run.results[warm:] {
			if r.Degradation != DegradeNone {
				degraded++
			}
		}
		if degraded == 0 {
			t.Fatal("no frame was served from the degradation ladder")
		}
	})
}

// TestRepairReuseMatchesRescan pins repair's reuse rule at the function
// itself: on twin caches, repairing from the frame's own lookup — taken
// at the vote K and any radius from half the vote radius up, truncated
// by the store or not — removes exactly what repairing from a fresh scan
// removes.
func TestRepairReuseMatchesRescan(t *testing.T) {
	cfg := DefaultConfig()
	dim := cfg.Extractor.Dim()
	rng := rand.New(rand.NewSource(8))
	// Tight clusters of mixed labels around a few centers.
	centers := make([]feature.Vector, 6)
	for c := range centers {
		centers[c] = make(feature.Vector, dim)
		for d := range centers[c] {
			centers[c][d] = rng.Float64()
		}
	}
	near := func(c int, sigma float64) feature.Vector {
		v := centers[c].Clone()
		for d := range v {
			v[d] += rng.NormFloat64() * sigma
		}
		return v
	}
	newTwin := func(hide bool) (*Engine, *cachestore.Store) {
		clock := simclock.NewVirtual(time.Unix(0, 0))
		idx, err := lsh.NewHyperplane(dim, 12, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := cachestore.New(cachestore.Config{Capacity: 512}, idx, clock)
		if err != nil {
			t.Fatal(err)
		}
		classes, err := vision.NewClassSet(4, 48, 48, 1)
		if err != nil {
			t.Fatal(err)
		}
		clf, err := dnn.NewClassifier(perfectProfile(), classes, 1)
		if err != nil {
			t.Fatal(err)
		}
		var store cachestore.Interface = raw
		if hide {
			store = hideWithin{raw}
		}
		eng, err := New(cfg, Deps{Clock: clock, Classifier: clf, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		return eng, raw
	}
	removedTotal := 0
	for trial := 0; trial < 60; trial++ {
		hide := trial%3 == 2
		reuse, reuseStore := newTwin(hide)
		rescan, rescanStore := newTwin(false)
		for i := 0; i < 40; i++ {
			v := near(rng.Intn(len(centers)), 0.004+0.006*rng.Float64())
			label := []string{"a", "b", "c"}[rng.Intn(3)]
			for _, s := range []*cachestore.Store{reuseStore, rescanStore} {
				if _, err := s.Insert(v, label, 0.9, "dnn", time.Millisecond); err != nil {
					t.Fatal(err)
				}
			}
		}
		for q := 0; q < 8; q++ {
			vec := near(rng.Intn(len(centers)), 0.005)
			radius := cfg.Vote.MaxDistance * (0.5 + 0.5*rng.Float64())
			ns, err := cachestore.NearestWithinInto(reuse.deps.Store, vec, cfg.Vote.K, radius, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := reuse.repairNear(vec, "a", cfg.Vote.MaxDistance/2, ns, true)
			want, _ := rescan.repairNear(vec, "a", cfg.Vote.MaxDistance/2, nil, false)
			if got != want {
				t.Fatalf("trial %d query %d: reuse removed %d, rescan %d", trial, q, got, want)
			}
			removedTotal += got
		}
		a, b := reuseStore.Snapshot(), rescanStore.Snapshot()
		sort.Slice(a, func(i, j int) bool { return a[i].ID < a[j].ID })
		sort.Slice(b, func(i, j int) bool { return b[i].ID < b[j].ID })
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: caches diverged (%d vs %d entries)", trial, len(a), len(b))
		}
	}
	if removedTotal == 0 {
		t.Fatal("nothing was ever repaired")
	}
}
