package core

import (
	"sync"
	"testing"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/dnn"
	"approxcache/internal/lsh"
	"approxcache/internal/metrics"
	"approxcache/internal/simclock"
	"approxcache/internal/testutil"
	"approxcache/internal/vision"
)

// qualityFixture is a fixture whose classifier can drift mid-run and
// whose store quarantines on the first refute.
type qualityFixture struct {
	engine  *Engine
	clock   *simclock.Virtual
	store   *cachestore.Store
	classes *vision.ClassSet
	faulty  *dnn.FaultyClassifier
}

func newQualityFixture(t *testing.T, quality QualityConfig) *qualityFixture {
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
	faulty, err := dnn.NewFaultyClassifier(classifier, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	// Route every reuse through the local cache so audits exercise the
	// entry bookkeeping, not the sensor gates.
	cfg.DisableIMUGate = true
	cfg.DisableVideoGate = true
	cfg.Quality = quality
	idx, err := lsh.NewHyperplane(cfg.Extractor.Dim(), 12, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	store, err := cachestore.New(cachestore.Config{Capacity: 8, QuarantineThreshold: 1}, idx, clock)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(cfg, Deps{Clock: clock, Classifier: faulty, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	return &qualityFixture{engine: eng, clock: clock, store: store, classes: classes, faulty: faulty}
}

func TestQualityConfigValidate(t *testing.T) {
	for _, ok := range []QualityConfig{{}, {Enabled: true}, {AuditSampleEvery: -1}} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", ok, err)
		}
	}
	if err := (QualityConfig{Enabled: true, AuditSampleEvery: -1}).Validate(); err == nil {
		t.Error("negative AuditSampleEvery validated")
	}
}

// TestShadowAuditConfirmsHealthyReuse: with no drift, every audited
// reuse agrees with the DNN — confirms accumulate, nothing is refuted
// or quarantined, and the live-accuracy estimate stays at 1.
func TestShadowAuditConfirmsHealthyReuse(t *testing.T) {
	fx := newQualityFixture(t, QualityConfig{
		Enabled: true, Synchronous: true, AuditSampleEvery: 1,
	})
	im, err := fx.classes.Prototype(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := fx.engine.Process(im, nil); err != nil {
			t.Fatal(err)
		}
	}
	audits, refutes := fx.engine.Stats().Audits()
	if audits == 0 || refutes != 0 {
		t.Fatalf("audits=%d refutes=%d, want some audits and zero refutes", audits, refutes)
	}
	snap, ok := fx.engine.QualitySnapshot()
	if !ok || snap.LiveAccuracy != 1 || snap.Scale != 1 {
		t.Fatalf("snapshot = %+v ok=%v", snap, ok)
	}
	if st := fx.store.QuarantineStats(); st.Total != 0 {
		t.Fatalf("healthy reuse quarantined entries: %+v", st)
	}
}

// TestShadowAuditDetectsDriftAndHeals: after the classifier silently
// drifts, the next audited reuse refutes the stale entry, quarantines
// it, repairs the neighborhood, and the frame after that serves the
// drifted label again.
func TestShadowAuditDetectsDriftAndHeals(t *testing.T) {
	fx := newQualityFixture(t, QualityConfig{
		Enabled: true, Synchronous: true, AuditSampleEvery: 1,
	})
	im, err := fx.classes.Prototype(0)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache and confirm healthy reuse.
	for i := 0; i < 3; i++ {
		res, err := fx.engine.Process(im, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Label != dnn.LabelOf(0) {
			t.Fatalf("pre-drift label = %q", res.Label)
		}
	}
	// The model drifts: same scene, new label, no error, no slowdown.
	relabel := dnn.ShiftRelabel(1, fx.classes.NumClasses())
	if err := fx.faulty.SetFaultPlan(dnn.FaultPlan{{
		From: fx.faulty.Calls(), To: 1 << 30, Kind: dnn.FaultDrift, Relabel: relabel,
	}}); err != nil {
		t.Fatal(err)
	}
	drifted := relabel(dnn.LabelOf(0))
	// The serve straight after the drift is a stale cache hit — that is
	// the failure mode. Its shadow audit must catch it.
	res, err := fx.engine.Process(im, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Label != dnn.LabelOf(0) {
		t.Fatalf("first post-drift serve = %q, want the stale %q (else no drift happened)",
			res.Label, dnn.LabelOf(0))
	}
	if _, refutes := fx.engine.Stats().Audits(); refutes == 0 {
		t.Fatal("audit did not refute the stale serve")
	}
	if st := fx.store.QuarantineStats(); st.Total == 0 {
		t.Fatal("refuted entry was not quarantined")
	}
	// Healing must win within a few frames: repair purged the stale
	// neighborhood, inserted the fresh label, and forced revalidation.
	healed := false
	for i := 0; i < 3 && !healed; i++ {
		res, err := fx.engine.Process(im, nil)
		if err != nil {
			t.Fatal(err)
		}
		healed = res.Label == drifted
	}
	if !healed {
		t.Fatalf("engine still serving stale label after heal window")
	}
	snap, ok := fx.engine.QualitySnapshot()
	if !ok || snap.LiveAccuracy >= 1 {
		t.Fatalf("refutes did not dent the live-accuracy estimate: %+v", snap)
	}
}

// TestRecalibrationWaitsForMinSamples: however bad the sampled audits,
// the controller does not act before the 8th, and from there waits out
// the 4-audit cooldown before its first move (the 11th), a 0.7× tighten.
func TestRecalibrationWaitsForMinSamples(t *testing.T) {
	stats := metrics.NewSessionStats()
	qc := newQualityController(QualityConfig{Enabled: true}, nil, nil, stats, nil)
	for i := 1; i <= minSamples+cooldownAudits-1; i++ {
		qc.observeVerdict(false, true)
		tightens, _ := stats.RecalibrationEvents()
		moved := tightens > 0 || qc.scale() != 1
		if first := i == minSamples+cooldownAudits-1; moved != first {
			t.Fatalf("sampled refute %d: moved = %v (scale %v, %d tightens), want %v", i, moved, qc.scale(), tightens, first)
		}
	}
	if got := qc.scale(); got != tightenStep {
		t.Fatalf("scale after the first move = %v, want %v", got, tightenStep)
	}
}

// TestAuditsRaceInsertsEvictions drives concurrent sessions over a
// tiny store (constant eviction churn) with asynchronous audits and a
// classifier that drifts mid-run, under -race: audits, heals, paroles,
// inserts, and evictions all interleave. The auditor must neither race
// nor leak its goroutines.
func TestAuditsRaceInsertsEvictions(t *testing.T) {
	checkLeak := testutil.LeakGuard(t, 2)
	fx := newQualityFixture(t, QualityConfig{
		Enabled: true, AuditSampleEvery: 1,
	})
	frames := make([]*vision.Image, 6)
	for i := range frames {
		im, err := fx.classes.Prototype(i)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = im
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				im := frames[(w+i)%len(frames)]
				if _, err := fx.engine.Process(im, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Drift arrives while the streams are mid-flight.
	time.Sleep(time.Millisecond)
	if err := fx.faulty.SetFaultPlan(dnn.FaultPlan{{
		From: fx.faulty.Calls(), To: 1 << 30, Kind: dnn.FaultDrift,
		Relabel: dnn.ShiftRelabel(2, fx.classes.NumClasses()),
	}}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	fx.engine.DrainAudits()
	if audits, _ := fx.engine.Stats().Audits(); audits == 0 {
		t.Fatal("no audits ran during the stress")
	}
	checkLeak()
}
