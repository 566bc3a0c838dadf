package core

// The engine's model harness. A seeded op stream — frames, corrupt
// frames and IMU windows, clock jumps, classifier faults, quarantine
// verdicts and snapshot round trips — drives Engine and a plainly
// written reference engine in lockstep over an enumerated grid of
// configurations. After every op the two must agree on the Result, the
// FrameRecord's decisions, the store's contents and every session
// counter, and a fixed set of invariants must hold. Mechanisms the
// reference does not model (quality audits, admission and brownout,
// peers) run invariant-only: against a twin engine whose store hides
// its radius search where the twin is deterministic, alone where it is
// not. FuzzEngineModel decodes the same op stream from bytes.

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// The store and streak bounds every model cell runs under: small enough
// that eviction, revalidation and both ladder rungs happen within a few
// dozen frames.
const (
	modelCapacity = 8
	modelStreak   = 6
)

// modelCell is one configuration of the grid.
type modelCell struct {
	policy cachestore.Policy
	exact  bool   // lsh.ExactIndex instead of the 12-bit × 4-table hyperplane index
	hidden bool   // the radius search hidden from the engine (hideWithin) and the store (hiddenIndex)
	off    string // the Disable* switch set: "", "imu-gate", "video-gate", "guards"
	// scale is the quality layer's gate strictness, audits off, until a
	// strictness op changes it; 0 leaves the layer off.
	scale float64
	// extra switches on a mechanism the reference does not model:
	// "audits", "admission", "brownout", "peers".
	extra    string
	streak   int // MaxReuseStreak; 0 is modelStreak
	capacity int // store capacity; 0 is modelCapacity
	// eager makes the twin of an extra cell guard each frame before any
	// gate sees it and extract with refExtractor: the order the engine
	// had before its guard went lazy.
	eager bool
}

func (c modelCell) name() string {
	n := fmt.Sprintf("%s/%s", c.policy, map[bool]string{false: "hyperplane", true: "exact"}[c.exact])
	if c.hidden {
		n += "/hidden"
	}
	for _, s := range []string{c.off, c.extra} {
		if s != "" {
			n += "/" + s
		}
	}
	if c.streak != 0 {
		n += fmt.Sprintf("/streak-%d", c.streak)
	}
	if c.scale != 0 {
		n += fmt.Sprintf("/scale-%g", c.scale)
	}
	if c.capacity != 0 {
		n += fmt.Sprintf("/cap-%d", c.capacity)
	}
	if c.eager {
		n += "/eager"
	}
	return n
}

func (c modelCell) config() Config {
	cfg := DefaultConfig()
	cfg.MaxReuseStreak = modelStreak
	if c.streak != 0 {
		cfg.MaxReuseStreak = c.streak
	}
	switch c.off {
	case "imu-gate":
		cfg.DisableIMUGate = true
	case "video-gate":
		cfg.DisableVideoGate = true
	case "guards":
		cfg.DisableSensorGuards = true
	}
	if c.scale != 0 {
		cfg.Quality = QualityConfig{Enabled: true, AuditSampleEvery: 1 << 30}
	}
	switch c.extra {
	case "audits":
		cfg.Quality = QualityConfig{Enabled: true, AuditSampleEvery: 2}
	case "admission", "brownout":
		cfg.Admission = true
	}
	return cfg
}

// modelGrid is every eviction policy × index kind × radius-search
// visibility × stage list, plus two quality-scale cells, all in
// lockstep with the reference; then one cell per unmodelled mechanism.
func modelGrid() []modelCell {
	var cells []modelCell
	for _, p := range []cachestore.Policy{cachestore.LRU, cachestore.LFU, cachestore.CostAware} {
		for _, exact := range []bool{false, true} {
			for _, hidden := range []bool{false, true} {
				for _, off := range []string{"", "imu-gate", "video-gate", "guards"} {
					cells = append(cells, modelCell{policy: p, exact: exact, hidden: hidden, off: off})
				}
			}
		}
	}
	cells = append(cells, modelCell{policy: cachestore.CostAware, scale: 0.4},
		modelCell{policy: cachestore.LRU, exact: true, hidden: true, scale: 0.5})
	// peers first: there TestEngineModel runs it on the churn stream,
	// whose evictions send lookups on to the peers.
	for _, extra := range []string{"peers", "audits", "admission", "brownout"} {
		cells = append(cells, modelCell{policy: cachestore.CostAware, extra: extra})
	}
	return cells
}

// Op kinds. A frame op takes the stream's next frame; the others corrupt
// it or act beside the frame path.
const (
	opFrame      = iota // next frame, skipping arg%3 frames
	opBadFrame          // next frame corrupted: black, flat, short buffer, nil
	opBadIMU            // next frame with its window stuck, non-monotonic, dropped out or non-finite
	opAdvance           // clock jump of 4 s or 1 s: breaker cooldowns and revalidation read the clock
	opClassifier        // classifier down, up, transient error, hang; limiter held
	opVerdict           // Confirm, Refute, Parole ok, Parole fail on an entry
	opPlant             // a wrong label cached at the next frame's descriptor
	opRoundTrip         // Export → Import
	opStrictness        // the quality scale set to 1, 0.75, 0.5 or 0.4 on a quality-scale cell
)

var opNames = [...]string{"frame", "bad-frame", "bad-imu", "advance", "classifier", "verdict", "plant", "round-trip", "strictness"}

// modelOp is one step of a stream: a kind and its argument.
type modelOp struct{ kind, arg byte }

func (o modelOp) String() string { return fmt.Sprintf("%s(%d)", opNames[o.kind], o.arg) }

// decodeOps reads two bytes per op; frames take seven of the sixteen
// kinds.
func decodeOps(b []byte) []modelOp {
	kinds := [16]byte{opFrame, opFrame, opFrame, opFrame, opFrame, opFrame, opFrame, opStrictness,
		opBadFrame, opBadIMU, opAdvance, opClassifier, opClassifier, opVerdict, opPlant, opRoundTrip}
	ops := make([]modelOp, 0, len(b)/2)
	for i := 0; i+1 < len(b); i += 2 {
		ops = append(ops, modelOp{kinds[b[i]%16], b[i+1]})
	}
	return ops
}

func seededOps(seed int64, n int) []modelOp {
	b := make([]byte, 2*n)
	rand.New(rand.NewSource(seed)).Read(b)
	return decodeOps(b)
}

// diffFrame is one input of a stream.
type diffFrame struct {
	img   *vision.Image
	win   []imu.Sample
	truth string
}

// diffStream is a named input stream over one class set.
type diffStream struct {
	name    string
	classes *vision.ClassSet
	frames  []diffFrame
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

// randomSpec is a random but valid trace: one to four segments of
// random regimes, frame rate, IMU rate, vocabulary and class skew.
func randomSpec(r *rand.Rand) trace.Spec {
	regimes := []string{"stationary", "handheld", "walking", "panning"}
	segs := make([]trace.SegmentSpec, 1+r.Intn(4))
	for i := range segs {
		segs[i] = trace.SegmentSpec{Regime: regimes[r.Intn(len(regimes))], Frames: 10 + r.Intn(40)}
	}
	return trace.Spec{Name: "random", FPS: 5 + r.Intn(25), IMURateHz: 50 + r.Intn(100), NumClasses: 2 + r.Intn(8),
		ImageW: 48, ImageH: 48, Segments: segs, Seed: r.Int63n(1 << 30), ClassSkew: r.Float64()}
}

// modelStreams are the four standard IMU+video traces, a churn stream
// and two random traces, generated once per process.
var modelStreams = func() func(*testing.T) []diffStream {
	var streams []diffStream
	return func(t *testing.T) []diffStream {
		t.Helper()
		if streams != nil {
			return streams
		}
		for _, spec := range trace.StandardSpecs(240, 3) {
			w, err := trace.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			streams = append(streams, diffStream{spec.Name, w.Classes, traceFrames(w)})
		}
		classes, frames := churnStream(t, 400)
		streams = append(streams, diffStream{"churn", classes, frames})
		streams = append(streams, randomStreams(t, 2)...)
		streams = append(streams, mixedStream(t))
		return streams
	}
}()

// mixedStream is one handheld trace rendered at 48×48, 37×29 and 5×3
// (the keyframe library's odd sizes): runs of twenty frames alternate
// between the first two, and every thirteenth frame is the third, too
// small to describe.
func mixedStream(t *testing.T) diffStream {
	t.Helper()
	var sizes [3][]diffFrame
	var classes *vision.ClassSet
	for i, wh := range [3][2]int{{48, 48}, {37, 29}, {5, 3}} {
		spec := trace.HandheldMix(240, 7)
		spec.ImageW, spec.ImageH = wh[0], wh[1]
		w, err := trace.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			classes = w.Classes
		}
		sizes[i] = traceFrames(w)
	}
	frames := make([]diffFrame, len(sizes[0]))
	for i := range frames {
		switch {
		case i%13 == 12:
			frames[i] = sizes[2][i]
		default:
			frames[i] = sizes[i/20%2][i]
		}
	}
	return diffStream{"mixed-size", classes, frames}
}

// randomStreams are the first n random traces of seed 99.
func randomStreams(t *testing.T, n int) []diffStream {
	t.Helper()
	var out []diffStream
	r := rand.New(rand.NewSource(99))
	for i := 1; i <= n; i++ {
		w, err := trace.Generate(randomSpec(r))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, diffStream{fmt.Sprintf("random-%d", i), w.Classes, traceFrames(w)})
	}
	return out
}

// refExtractor is the default descriptor (8×8 grid of cell means, 16-bin
// histogram, unit norm) written out longhand from the pixels: cell by
// cell, float counters, no thumbnail.
type refExtractor struct{}

func (refExtractor) Dim() int     { return 80 }
func (refExtractor) Name() string { return "ref-grid8x8+hist16" }

func (r refExtractor) ExtractInto(im *vision.Image, dst feature.Vector) (feature.Vector, error) {
	v, err := r.Extract(im)
	if err != nil {
		return nil, err
	}
	return append(dst[:0], v...), nil
}

func (refExtractor) Extract(im *vision.Image) (feature.Vector, error) {
	if !im.WellFormed() || im.W < 8 || im.H < 8 {
		return nil, fmt.Errorf("ref extractor: unusable frame")
	}
	out := make(feature.Vector, 80)
	for gy := 0; gy < 8; gy++ {
		y0, y1 := gy*im.H/8, (gy+1)*im.H/8
		for gx := 0; gx < 8; gx++ {
			x0, x1 := gx*im.W/8, (gx+1)*im.W/8
			var sum int
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					sum += int(im.Pix[y*im.W+x])
				}
			}
			out[gy*8+gx] = float64(sum) / float64(vision.MaxLevel*(y1-y0)*(x1-x0))
		}
	}
	for _, p := range im.Pix {
		b := int(p) * 16 / vision.MaxLevel
		if b > 15 {
			b = 15
		}
		out[64+b]++
	}
	for i := 64; i < 80; i++ {
		out[i] /= float64(len(im.Pix))
	}
	out.Normalize()
	return out, nil
}

// machine is one side of a lockstep: an engine, its twin or the
// reference, with the substrates the harness reads and acts on.
type machine interface {
	process(in diffFrame) (Result, FrameRecord, error)
	counts() ([metrics.NumEvents]int64, map[string]int)
	parts() *modelParts
	setScale(s float64) // the quality layer's gate strictness
}

// modelParts are a machine's clock, store and classifier.
type modelParts struct {
	clock *simclock.Virtual
	store *cachestore.Store
	clf   *dnn.FaultyClassifier
	ccfg  cachestore.Config
	exact bool
	hide  bool // the index's radius search and vector source hidden from the store
}

func newModelParts(t *testing.T, cell modelCell, classes *vision.ClassSet) *modelParts {
	t.Helper()
	capacity := modelCapacity
	if cell.capacity != 0 {
		capacity = cell.capacity
	}
	p := &modelParts{clock: simclock.NewVirtual(time.Unix(0, 0)), exact: cell.exact, hide: cell.hidden,
		ccfg: cachestore.Config{Capacity: capacity, Policy: cell.policy, QuarantineThreshold: 1}}
	// A sloppy model: wrong labels get cached, later lookups land among
	// mixed labels, votes fail, and the fresh inference repairs them.
	profile := dnn.MobileNetV2
	profile.Top1Accuracy = 0.7
	inner, err := dnn.NewClassifier(profile, classes, 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.clf, err = dnn.NewFaultyClassifier(inner, nil); err != nil {
		t.Fatal(err)
	}
	p.store = p.newStore(t)
	return p
}

// newStore is an empty store shaped like the machine's own.
func (p *modelParts) newStore(t *testing.T) *cachestore.Store {
	t.Helper()
	var idx lsh.Index
	var err error
	if p.exact {
		idx, err = lsh.NewExact(80)
	} else {
		idx, err = lsh.NewHyperplane(80, 12, 4, 1)
	}
	if err != nil {
		t.Fatal(err)
	}
	if p.hide {
		idx = hiddenIndex{idx}
	}
	s, err := cachestore.New(p.ccfg, idx, p.clock)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// hideWithin forwards a store through the bare interface, hiding its
// radius search: an engine over it takes the NearestInto fallback on
// every lookup and cannot tell the index a radius.
type hideWithin struct{ cachestore.Interface }

// hiddenIndex is hideWithin for an index: a store over it takes its own
// fallbacks, a truncated NearestInto and vector copies of its own.
type hiddenIndex struct{ lsh.Index }

// seenStore is the engine's view of its store. It counts lookups, and
// holds every entry the engine resolves to being live and trusted —
// the hook for "a quarantined entry is never served".
type seenStore struct {
	*cachestore.Store
	t       *testing.T
	lookups int
	labels  map[string]bool // labels resolved since the last reset
}

func (s *seenStore) NearestInto(q feature.Vector, k int, dst []lsh.Neighbor) ([]lsh.Neighbor, error) {
	s.lookups++
	return s.Store.NearestInto(q, k, dst)
}

func (s *seenStore) NearestWithinInto(q feature.Vector, k int, radius float64, dst []lsh.Neighbor) ([]lsh.Neighbor, error) {
	s.lookups++
	return s.Store.NearestWithinInto(q, k, radius, dst)
}

func (s *seenStore) Label(id lsh.ID) (string, bool) {
	label, ok := s.Store.Label(id)
	s.resolved(id, label, ok)
	return label, ok
}

func (s *seenStore) Answer(id lsh.ID) (string, float64, bool) {
	label, conf, ok := s.Store.Answer(id)
	s.resolved(id, label, ok)
	return label, conf, ok
}

func (s *seenStore) resolved(id lsh.ID, label string, ok bool) {
	if !ok {
		return
	}
	if _, trusted := s.Store.Label(id); !trusted {
		s.t.Errorf("entry %d resolved to %q while gone or quarantined", id, label)
	}
	s.labels[label] = true
}

func (s *seenStore) reset() {
	s.lookups = 0
	clear(s.labels)
}

// engineMachine is an Engine under the harness.
type engineMachine struct {
	*modelParts
	eng   *Engine
	seen  *seenStore
	eager bool // see modelCell.eager
}

func newEngineMachine(t *testing.T, cell modelCell, classes *vision.ClassSet) *engineMachine {
	t.Helper()
	p := newModelParts(t, cell, classes)
	m := &engineMachine{modelParts: p, seen: &seenStore{Store: p.store, t: t, labels: map[string]bool{}}, eager: cell.eager}
	var store cachestore.Interface = m.seen
	if cell.hidden {
		store = hideWithin{m.seen}
	}
	deps := Deps{Clock: p.clock, Classifier: p.clf, Store: store}
	if cell.extra == "peers" {
		deps.Peers, _ = newPeerCluster(t, 2, 80)
	}
	cfg := cell.config()
	if cell.eager {
		cfg.Extractor = refExtractor{}
	}
	var err error
	if m.eng, err = New(cfg, deps); err != nil {
		t.Fatal(err)
	}
	if cell.scale != 0 {
		m.eng.quality.setScale(cell.scale)
	}
	if cell.extra == "brownout" {
		brownOut(t, m.eng.ctrl)
	}
	return m
}

func (m *engineMachine) process(in diffFrame) (Result, FrameRecord, error) {
	var rec FrameRecord
	if m.eager {
		if f := vision.CheckFrame(in.img, m.eng.cfg.FrameGuard); f != vision.FrameOK {
			m.seen.t.Fatalf("eager guard: frame is not clean: %v", f)
		}
	}
	m.seen.reset()
	res, err := m.eng.ProcessRecord(in.img, in.win, in.truth, &rec)
	return res, rec, err
}

func (m *engineMachine) counts() ([metrics.NumEvents]int64, map[string]int) {
	return m.eng.Stats().Counts(), m.eng.Stats().SensorFaults()
}

func (m *engineMachine) parts() *modelParts { return m.modelParts }
func (m *engineMachine) setScale(s float64) { m.eng.quality.setScale(s) }

// refKeyframe is one scene anchor of the reference's keyframe gate.
type refKeyframe struct {
	im         *vision.Image
	label      string
	confidence float64
}

// refEngine is the pipeline written plainly: the guard eager, the stage
// order one straight run, the descriptor longhand, the keyframe gate a
// loop over vision.MeanAbsDiff, every lookup an unbounded NearestInto
// cut at its radius, repair a rescan, the watchdog, streak and ladder
// spelled out. It shares the store, the motion detector, the vote and
// the classifier, which have models of their own.
// A quality scale below one shrinks the detector's thresholds, the
// keyframe threshold and the vote radius.
type refEngine struct {
	*modelParts
	cfg    Config
	scale  float64
	det    *imu.Detector
	kfs    []refKeyframe // newest last
	events [metrics.NumEvents]int64
	faults map[string]int

	last    Result
	hasLast bool
	streak  int

	failures  int // the watchdog's consecutive failed calls
	tripped   bool
	trippedAt time.Time
}

func newRefEngine(t *testing.T, cell modelCell, classes *vision.ClassSet) *refEngine {
	t.Helper()
	cfg := cell.config()
	cell.hidden = false
	det, err := imu.NewDetector(cfg.IMU)
	if err != nil {
		t.Fatal(err)
	}
	scale := 1.0
	if cell.scale != 0 {
		scale = cell.scale
		det.SetStrictness(scale)
	}
	return &refEngine{modelParts: newModelParts(t, cell, classes), cfg: cfg, scale: scale, det: det, faults: map[string]int{}}
}

func (r *refEngine) counts() ([metrics.NumEvents]int64, map[string]int) { return r.events, r.faults }
func (r *refEngine) parts() *modelParts                                 { return r.modelParts }

func (r *refEngine) setScale(s float64) {
	r.scale = s
	r.det.SetStrictness(s)
}

func (r *refEngine) fault(kind string) {
	r.events[metrics.EventSensorFault]++
	r.faults[kind]++
}

// nearest is the store's k nearest neighbours of q, cut at radius.
func (r *refEngine) nearest(q feature.Vector, k int, radius float64) []lsh.Neighbor {
	ns, err := r.store.NearestInto(q, k, nil)
	if err != nil {
		panic(err)
	}
	for i, n := range ns {
		if n.Distance > radius {
			return ns[:i]
		}
	}
	return ns
}

// infer is the watchdog: a breaker open within its cooldown fails fast;
// otherwise up to 1+maxRetries attempts, each retry paying the backoff
// and the session's jitter; the failure count trips the breaker.
func (r *refEngine) infer(im *vision.Image) (dnn.Inference, time.Duration, error) {
	if r.tripped && r.clock.Now().Sub(r.trippedAt) < cooldown {
		r.events[metrics.EventWatchdogFastFail]++
		return dnn.Inference{}, 0, ErrClassifierDown
	}
	var penalty time.Duration
	var err error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			penalty += retryBackoff + retryPause(jitterSeedFor(0), attempt)
			r.events[metrics.EventWatchdogRetry]++
		}
		var inf dnn.Inference
		if inf, err = r.clf.Infer(im); err == nil {
			if r.tripped {
				r.tripped = false
				r.events[metrics.EventWatchdogRecovery]++
			}
			r.failures = 0
			return inf, penalty, nil
		}
	}
	r.failures++
	if r.failures < tripThreshold && !r.tripped {
		return dnn.Inference{}, penalty, err
	}
	if !r.tripped {
		r.tripped = true
		r.events[metrics.EventWatchdogTrip]++
	}
	r.trippedAt = r.clock.Now()
	return dnn.Inference{}, penalty, ErrClassifierDown
}

// refresh re-anchors the keyframe gate and the motion detector on a
// verified recognition: a same-scene keyframe is displaced, the oldest
// evicted past capacity.
func (r *refEngine) refresh(im *vision.Image, label string, confidence float64) {
	kept := r.kfs[:0:0]
	for _, kf := range r.kfs {
		if vision.MeanAbsDiff(kf.im, im) > r.cfg.Diff.Threshold*r.scale {
			kept = append(kept, kf)
		}
	}
	r.kfs = append(kept, refKeyframe{im.Clone(), label, confidence})
	if len(r.kfs) > r.cfg.KeyframeCapacity {
		r.kfs = r.kfs[1:]
	}
	r.det.Mark()
}

func (r *refEngine) process(in diffFrame) (res Result, rec FrameRecord, err error) {
	c, im := r.cfg, in.img
	charge := func(s Stage, latency time.Duration, energy float64) {
		rec.Stages[s].Latency += latency
		rec.Stages[s].EnergyMJ += energy
	}
	serve := func(s Stage, label string, conf float64, src metrics.Source, d DegradationLevel) (Result, FrameRecord, error) {
		rec.Stages[s].Outcome, rec.Served = OutcomeServed, s
		res = Result{Label: label, Confidence: conf, Source: src, Degradation: d}
		for _, st := range rec.Stages {
			res.Latency += st.Latency
			res.EnergyMJ += st.EnergyMJ
		}
		r.clock.Sleep(res.Latency)
		if in.truth != "" && label == in.truth {
			r.events[metrics.EventCorrect]++
		}
		if d != DegradeNone {
			r.events[metrics.EventDegradedServe]++
		}
		if rec.Stages[StageFrame].Outcome == OutcomeRefused {
			return res, rec, nil // a refused frame leaves the last result and the streak
		}
		r.last, r.hasLast = res, true
		if src == metrics.SourceDNN {
			r.streak = 0
		} else {
			r.streak++
		}
		return res, rec, nil
	}
	guards := !c.DisableSensorGuards
	if im == nil {
		r.fault("frame-nil")
		return res, rec, ErrBadFrame
	}

	// Sensors: the frame's shape and the IMU window.
	imuOK := true
	if guards {
		rec.Stages[StageSensors].Outcome = OutcomeRefused
		if !im.WellFormed() {
			r.fault("frame-empty")
			return res, rec, ErrBadFrame
		}
		if wf := imu.CheckWindow(in.win, c.IMUGuard); wf != imu.WindowOK {
			r.fault("imu-" + wf.String())
			if wf == imu.WindowNonFinite {
				return res, rec, ErrBadIMUWindow
			}
			imuOK = false
		} else {
			rec.Stages[StageSensors].Outcome = OutcomePassed
		}
	}

	// Inertial gate; its bookkeeping runs with the gate off too.
	if imuOK {
		r.det.ObserveAll(in.win)
	}
	reval := c.MaxReuseStreak > 0 && r.streak >= c.MaxReuseStreak
	rec.Revalidate = reval
	if !c.DisableIMUGate {
		rec.Stages[StageIMU].Outcome = OutcomeSkipped
		if imuOK && !reval && r.hasLast {
			st := r.det.State()
			rec.Stationary, rec.Rotation, rec.MaxRotation = st.Stationary, st.RotationSinceMark, st.MaxRotation
			charge(StageIMU, imuGateLatency, imuGateEnergyMJ)
			rec.Stages[StageIMU].Outcome = OutcomePassed
			if st.AllowsReuse() {
				return serve(StageIMU, r.last.Label, r.last.Confidence, metrics.SourceIMU, DegradeNone)
			}
		}
	}

	// Frame guard: a structural fault refuses, low entropy bypasses the cache.
	frameOK := true
	if guards {
		switch f := vision.CheckFrame(im, c.FrameGuard); f {
		case vision.FrameOK:
			rec.Stages[StageFrame].Outcome = OutcomePassed
		default:
			r.fault("frame-" + f.String())
			rec.Stages[StageFrame].Outcome = OutcomeRefused
			if f.Structural() {
				return res, rec, ErrBadFrame
			}
			frameOK = false
		}
	}

	// Keyframe gate: the nearest keyframe within the threshold, the
	// newest among equals.
	if !c.DisableVideoGate {
		rec.Stages[StageVideo].Outcome = OutcomeSkipped
		if frameOK && !reval && len(r.kfs) > 0 {
			threshold := c.Diff.Threshold * r.scale
			best, bestDiff, minDiff := -1, threshold, math.Inf(1)
			for i, kf := range r.kfs {
				d := vision.MeanAbsDiff(kf.im, im)
				if d <= bestDiff {
					best, bestDiff = i, d
				}
				minDiff = math.Min(minDiff, d)
			}
			rec.KeyframeDiff, rec.DiffThreshold, rec.ExactDiffs = minDiff, threshold, len(r.kfs)
			charge(StageVideo, diffLatency, diffEnergyMJ)
			rec.Stages[StageVideo].Outcome = OutcomePassed
			if best >= 0 {
				kf := r.kfs[best]
				rec.KeyframeDiff = bestDiff
				return serve(StageVideo, kf.label, kf.confidence, metrics.SourceVideo, DegradeNone)
			}
		}
	}

	// Descriptor.
	var vec feature.Vector
	rec.Stages[StageExtract].Outcome = OutcomeSkipped
	if frameOK {
		if vec, err = (refExtractor{}).Extract(im); err != nil {
			rec.Stages[StageExtract].Outcome = 0
			return res, rec, err
		}
		charge(StageExtract, featureLatency, featureEnergyMJ)
		rec.Stages[StageExtract].Outcome = OutcomePassed
	}

	// Local cache: the in-range neighbours vote.
	rec.Stages[StageLookup].Outcome = OutcomeSkipped
	if frameOK && !reval {
		vote := c.Vote
		vote.MaxDistance *= r.scale
		ns := r.nearest(vec, vote.K, vote.MaxDistance)
		rec.K, rec.Radius, rec.Nearest = vote.K, vote.MaxDistance, math.Inf(1)
		if len(ns) > 0 {
			rec.Nearest = ns[0].Distance
		}
		v, err := lsh.Vote(ns, r.store.Label, vote)
		if err != nil {
			return res, rec, err
		}
		charge(StageLookup, lookupLatency, lookupEnergyMJ)
		rec.Accepted, rec.VoteConfidence = v.Accepted, v.Confidence
		rec.Stages[StageLookup].Outcome = OutcomePassed
		if v.Accepted {
			r.store.Touch(ns[0].ID)
			r.refresh(im, v.Label, v.Confidence)
			return serve(StageLookup, v.Label, v.Confidence, metrics.SourceLocal, DegradeNone)
		}
	}
	rec.Stages[StagePeer].Outcome = OutcomeSkipped

	// Inference under the watchdog.
	inf, penalty, ierr := r.infer(im)
	rec.Penalty = penalty
	charge(StageDNN, penalty, 0)
	if ierr == nil {
		charge(StageDNN, inf.Latency, inf.EnergyMJ)
		rec.Stages[StageDNN].Outcome, rec.Served = OutcomeServed, StageDNN
		if frameOK {
			// Repair: a rescan at half the vote radius.
			for _, n := range r.nearest(vec, c.Vote.K, c.Vote.MaxDistance/2) {
				if label, ok := r.store.Label(n.ID); ok && label != inf.Label {
					r.store.Remove(n.ID)
					rec.Repairs++
				}
			}
			r.events[metrics.EventRepair] += int64(rec.Repairs)
			rec.Stages[StageRepair].Outcome = OutcomePassed
			if _, err := r.store.Insert(vec, inf.Label, inf.Confidence, "dnn", inf.Latency); err != nil {
				return res, rec, err
			}
			r.refresh(im, inf.Label, inf.Confidence)
			rec.Stages[StageInsert].Outcome = OutcomePassed
			rec.Stages[StageGossip].Outcome = OutcomeSkipped
		}
		return serve(StageDNN, inf.Label, inf.Confidence, metrics.SourceDNN, DegradeNone)
	}

	// The ladder: a cached entry at twice the vote radius, else the last
	// result, else the failure.
	if frameOK {
		charge(StageDNN, lookupLatency, lookupEnergyMJ)
		if ns := r.nearest(vec, 1, fallbackRadiusFactor*c.Vote.MaxDistance); len(ns) > 0 {
			if label, conf, ok := r.store.Answer(ns[0].ID); ok {
				r.store.Touch(ns[0].ID)
				return serve(StageDNN, label, conf*fallbackConfidence, metrics.SourceFallback, DegradeCacheOnly)
			}
		}
	}
	if r.hasLast {
		return serve(StageDNN, r.last.Label, r.last.Confidence*fallbackConfidence, metrics.SourceFallback, DegradeLastResult)
	}
	rec.Stages[StageDNN].Outcome = OutcomeRefused
	return res, rec, ierr
}

// errClass is what the harness compares of an error.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrBadFrame):
		return "bad-frame"
	case errors.Is(err, ErrBadIMUWindow):
		return "bad-imu-window"
	}
	return "refused"
}

// modelHarness drives one cell over one stream.
type modelHarness struct {
	t    *testing.T
	cell modelCell
	cfg  Config
	st   diffStream
	eng  *engineMachine
	ref  machine // the reference, a twin engine, or nil
	next int     // the stream's next frame
	held int     // limiter slots the harness holds
	// reached tallies what the run exercised.
	reached map[string]int
	// vocab is every label a frame may get: the stream's classes and
	// the planted wrong ones.
	vocab map[string]bool

	// What the invariants remember: every served latency, the reuse run
	// since the last inference, and the last served result.
	lat      []time.Duration
	reuseRun int
	last     Result
	hasLast  bool
}

func newModelHarness(t *testing.T, cell modelCell, st diffStream, start int) *modelHarness {
	t.Helper()
	h := &modelHarness{t: t, cell: cell, cfg: cell.config(), st: st, next: start % len(st.frames), reached: map[string]int{},
		vocab: map[string]bool{"wrong-0": true, "wrong-1": true}}
	for c := 0; c < st.classes.NumClasses(); c++ {
		h.vocab[dnn.LabelOf(c)] = true
	}
	lazy := cell
	lazy.eager = false
	h.eng = newEngineMachine(t, lazy, st.classes)
	switch {
	case cell.extra == "":
		h.ref = newRefEngine(t, cell, st.classes)
	case cell.extra != "peers": // peers answer on their own clock: no twin
		twin := cell
		twin.hidden = !cell.eager
		h.ref = newEngineMachine(t, twin, st.classes)
	}
	return h
}

func (h *modelHarness) machines() []machine {
	if h.ref == nil {
		return []machine{h.eng}
	}
	return []machine{h.eng, h.ref}
}

// input takes the stream's next frame, past skip others.
func (h *modelHarness) input(skip int) diffFrame {
	h.next = (h.next + skip) % len(h.st.frames)
	in := h.st.frames[h.next]
	h.next = (h.next + 1) % len(h.st.frames)
	return in
}

func (h *modelHarness) fatalf(i int, o modelOp, format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("cell %s stream %s op %d %v: %s", h.cell.name(), h.st.name, i, o, fmt.Sprintf(format, args...))
}

// step applies op i to both machines and checks them.
func (h *modelHarness) step(i int, o modelOp) {
	h.t.Helper()
	arg := int(o.arg)
	switch o.kind {
	case opFrame:
		h.frame(i, o, h.input(arg%3))
	case opBadFrame:
		in := h.input(0)
		switch arg % 4 {
		case 0:
			in.img = trace.CorruptFrame(in.img, trace.FrameBlack)
		case 1:
			in.img = trace.CorruptFrame(in.img, trace.FrameFlat)
		case 2:
			in.img = &vision.Image{W: in.img.W, H: in.img.H, Pix: in.img.Pix[:len(in.img.Pix)-1]}
		case 3:
			in.img = nil
		}
		h.frame(i, o, in)
	case opBadIMU:
		in := h.input(0)
		if len(in.win) == 0 {
			in.win = stationaryWindow(0)
		}
		faults := []trace.IMUFault{trace.IMUStuck, trace.IMUNonMonotonic, trace.IMUDropout, trace.IMUNonFinite}
		in.win = trace.CorruptIMUWindow(in.win, faults[arg%len(faults)], rand.New(rand.NewSource(int64(arg))))
		h.frame(i, o, in)
	case opAdvance:
		d := []time.Duration{4*time.Second + time.Millisecond, time.Second + time.Millisecond}[arg%2]
		for _, m := range h.machines() {
			m.parts().clock.Advance(d)
		}
	case opClassifier:
		h.classifier(arg)
	case opVerdict:
		h.verdict(arg)
	case opPlant: // not where a frame too small to describe would look
		vec, err := (refExtractor{}).Extract(h.st.frames[h.next].img)
		if err != nil {
			break
		}
		for _, m := range h.machines() {
			if _, err := m.parts().store.Insert(vec, fmt.Sprintf("wrong-%d", arg%2), 0.9, "dnn", time.Millisecond); err != nil {
				h.fatalf(i, o, "plant: %v", err)
			}
		}
	case opRoundTrip: // the stores are compared below, so one side is enough
		h.roundTrip(i, o, h.eng.parts())
	case opStrictness:
		if h.cell.scale != 0 {
			for _, m := range h.machines() {
				m.setScale([]float64{1, 0.75, 0.5, 0.4}[arg%4])
			}
			h.reached["op:strictness"]++
		}
	}
	h.compareState(i, o)
}

// classifier scripts the classifier's next calls on both machines, or
// holds the admission limiter's free slots.
func (h *modelHarness) classifier(arg int) {
	for _, m := range h.machines() {
		clf := m.parts().clf
		switch arg % 8 {
		case 0:
			clf.SetDown(true)
		case 1, 2, 3:
			clf.SetDown(false)
		case 4, 5:
			_ = clf.SetFaultPlan(dnn.FaultPlan{{From: clf.Calls(), To: clf.Calls() + 1, Kind: dnn.FaultError}})
		case 6:
			_ = clf.SetFaultPlan(dnn.FaultPlan{{From: clf.Calls(), To: clf.Calls() + 1, Kind: dnn.FaultHang, Extra: time.Millisecond}})
		}
	}
	if arg%8 != 7 || h.eng.eng.ctrl == nil {
		return
	}
	var engines []*Engine
	for _, m := range h.machines() {
		engines = append(engines, m.(*engineMachine).eng)
	}
	if h.held > 0 {
		for _, e := range engines {
			for j := 0; j < h.held; j++ {
				e.ctrl.Release(true)
			}
		}
		h.held = 0
		return
	}
	for engines[0].ctrl.TryAcquire() {
		h.held++
	}
	for _, e := range engines[1:] {
		for j := 0; j < h.held; j++ {
			if !e.ctrl.TryAcquire() {
				h.t.Fatalf("twin limiter refused slot %d of %d", j, h.held)
			}
		}
	}
}

// verdict confirms, refutes or paroles the arg-th entry in ID order.
func (h *modelHarness) verdict(arg int) {
	entries := sortedSnapshot(h.eng.store)
	if len(entries) == 0 {
		return
	}
	id := entries[(arg/4)%len(entries)].ID
	for _, m := range h.machines() {
		s := m.parts().store
		switch arg % 4 {
		case 0:
			s.Confirm(id)
		case 1:
			s.Refute(id)
		case 2, 3:
			s.Parole(id, arg%4 == 2)
		}
	}
}

// roundTrip exports p's store, imports it into an empty twin and exports
// that: the two snapshots must be byte-identical.
func (h *modelHarness) roundTrip(i int, o modelOp, p *modelParts) {
	var out, again bytes.Buffer
	if err := p.store.Export(&out); err != nil {
		h.fatalf(i, o, "export: %v", err)
	}
	fresh := p.newStore(h.t)
	if _, err := fresh.Import(bytes.NewReader(out.Bytes())); err != nil {
		h.fatalf(i, o, "import: %v", err)
	}
	if err := fresh.Export(&again); err != nil {
		h.fatalf(i, o, "re-export: %v", err)
	}
	if !bytes.Equal(out.Bytes(), again.Bytes()) {
		h.fatalf(i, o, "Export → Import → Export changed the snapshot (%d → %d bytes)", out.Len(), again.Len())
	}
}

// frame processes in on every machine, compares the outcomes and checks
// the engine's invariants.
func (h *modelHarness) frame(i int, o modelOp, in diffFrame) {
	h.t.Helper()
	keyframes, audits := h.eng.eng.keyframes.Len(), h.eng.eng.Stats().Count(metrics.EventAudit)
	res, rec, err := h.eng.process(in)
	if h.ref != nil {
		wres, wrec, werr := h.ref.process(in)
		if errClass(err) != errClass(werr) {
			h.fatalf(i, o, "error %v, reference %v", err, werr)
		}
		if err == nil && res != wres {
			h.fatalf(i, o, "result\n got %+v\nwant %+v", res, wres)
		}
		if _, twin := h.ref.(*engineMachine); !twin {
			rec = h.workBounds(i, o, rec, wrec, keyframes)
		}
		if rec != wrec && fmt.Sprint(rec) != fmt.Sprint(wrec) { // NaN rotations print alike
			h.fatalf(i, o, "record\n got %+v\nwant %+v", rec, wrec)
		}
	}
	h.invariants(i, o, res, rec, err, audits != h.eng.eng.Stats().Count(metrics.EventAudit))
	if err != nil {
		h.reached["error:"+errClass(err)]++
	} else {
		h.reached["source:"+string(res.Source)+"/"+res.Degradation.String()]++
	}
}

// workBounds checks the record's fields that report work done rather
// than a decision against the reference's, and returns the record with
// them set to the reference's values. ExactDiffs is at most the number
// of keyframes; an unmatched KeyframeDiff is only what the compared
// keyframes proved: above the threshold, +Inf when none was compared.
func (h *modelHarness) workBounds(i int, o modelOp, rec, want FrameRecord, keyframes int) FrameRecord {
	switch rec.Stages[StageVideo].Outcome {
	case OutcomeServed:
		if rec.ExactDiffs < 1 || rec.ExactDiffs > keyframes {
			h.fatalf(i, o, "matched after %d of %d keyframes diffed", rec.ExactDiffs, keyframes)
		}
	case OutcomePassed:
		if rec.ExactDiffs > keyframes {
			h.fatalf(i, o, "%d keyframes diffed, %d stored", rec.ExactDiffs, keyframes)
		}
		if !(rec.KeyframeDiff > rec.DiffThreshold) || (rec.ExactDiffs == 0) != math.IsInf(rec.KeyframeDiff, 1) {
			h.fatalf(i, o, "unmatched keyframe diff %v after %d exact diffs, threshold %v", rec.KeyframeDiff, rec.ExactDiffs, rec.DiffThreshold)
		}
		rec.KeyframeDiff = want.KeyframeDiff
	default:
		return rec
	}
	rec.ExactDiffs = want.ExactDiffs
	return rec
}

// isReuse reports whether src answers from reuse rather than inference
// or the ladder.
func isReuse(src metrics.Source) bool {
	return src == metrics.SourceIMU || src == metrics.SourceVideo || src == metrics.SourceLocal || src == metrics.SourcePeer
}

// invariants holds the engine's frame to what every configuration
// promises.
func (h *modelHarness) invariants(i int, o modelOp, res Result, rec FrameRecord, err error, audited bool) {
	e, seen := h.eng.eng, h.eng.seen
	checkRecord(h.t, e, &rec, res, err)
	if rec.Stages[StageDNN].Outcome == OutcomeRefused && h.hasLast {
		h.fatalf(i, o, "the ladder refused with a last result to serve")
	}
	if err != nil {
		return
	}
	if !h.vocab[res.Label] || res.Latency < 0 || res.EnergyMJ < 0 {
		h.fatalf(i, o, "label %q outside the vocabulary, or a negative cost: %+v", res.Label, res)
	}
	h.lat = append(h.lat, res.Latency)
	// A reuse run is bounded by MaxReuseStreak: ladder answers extend the
	// streak, and only an inference ends it. A frame the guard refused
	// neither ends nor extends it, and does not become the last result.
	refused := rec.Stages[StageFrame].Outcome == OutcomeRefused
	switch {
	case refused:
	case res.Source == metrics.SourceDNN:
		h.reuseRun = 0
	case isReuse(res.Source):
		if h.reuseRun++; h.reuseRun > h.cfg.MaxReuseStreak {
			h.fatalf(i, o, "%d reuse serves since the last inference, MaxReuseStreak %d", h.reuseRun, h.cfg.MaxReuseStreak)
		}
	}
	// The ladder steps down only from a failed or refused inference: its
	// cache rung serves an entry it resolved, its last-result rung the
	// previous answer, halved.
	switch res.Degradation {
	case DegradeNone:
		if res.Source == metrics.SourceFallback || res.Source == metrics.SourceShed {
			h.fatalf(i, o, "%s answer without a degradation level", res.Source)
		}
	case DegradeCacheOnly, DegradeLastResult, DegradeOverload, DegradeDeadline:
		if rec.Served != StageDNN || (res.Source != metrics.SourceFallback && res.Source != metrics.SourceShed) {
			h.fatalf(i, o, "degraded answer %+v served by %s", res, rec.Served)
		}
		if !seen.labels[res.Label] && !(h.hasLast && res.Label == h.last.Label &&
			res.Confidence == h.last.Confidence*fallbackConfidence) {
			h.fatalf(i, o, "degraded answer %+v is neither a resolved entry nor the last result %+v", res, h.last)
		}
	}
	if res.Source == metrics.SourceLocal && !seen.labels[res.Label] {
		h.fatalf(i, o, "local answer %q resolved from no live entry", res.Label)
	}
	if !refused {
		h.last, h.hasLast = res, true
	}
	// Work done: the frame's lookup, the ladder's, and a repair's own
	// rescan exactly when the frame's lookup cannot stand in for it — it
	// did not run, took fewer than K neighbours or a radius under half
	// the vote's (an audit looks up for itself).
	if audited {
		return
	}
	want := 0
	if o := rec.Stages[StageLookup].Outcome; o == OutcomePassed || o == OutcomeServed {
		want++
	}
	if rec.Stages[StageRepair].Outcome == OutcomePassed && !(want == 1 && rec.K == h.cfg.Vote.K && rec.Radius >= h.cfg.Vote.MaxDistance/2) {
		want++
		h.reached["repair:rescan"]++
	}
	if res.Degradation != DegradeNone && rec.Stages[StageExtract].Outcome == OutcomePassed {
		want++
	}
	if seen.lookups != want {
		h.fatalf(i, o, "%d lookups, want %d", seen.lookups, want)
	}
}

// sortedSnapshot is s's entries in ID order.
func sortedSnapshot(s *cachestore.Store) []cachestore.Entry {
	es := s.Snapshot()
	slices.SortFunc(es, func(a, b cachestore.Entry) int { return cmp.Compare(a.ID, b.ID) })
	return es
}

// compareState requires the machines' stores, counters, clocks and
// classifier call counts to agree, and the engine's latency histogram
// to answer every percentile at most 6.25 % high and never low.
func (h *modelHarness) compareState(i int, o modelOp) {
	h.t.Helper()
	if h.ref != nil {
		a, b := h.eng.parts(), h.ref.parts()
		if sa, sb := sortedSnapshot(a.store), sortedSnapshot(b.store); !reflect.DeepEqual(sa, sb) {
			h.fatalf(i, o, "stores differ: %d entries, reference %d", len(sa), len(sb))
		}
		if a.store.Evictions() != b.store.Evictions() {
			h.fatalf(i, o, "evictions %d, reference %d", a.store.Evictions(), b.store.Evictions())
		}
		ca, fa := h.eng.counts()
		cb, fb := h.ref.counts()
		if ca != cb {
			for ev := range ca {
				if ca[ev] != cb[ev] {
					h.fatalf(i, o, "counter %s = %d, reference %d", metrics.Event(ev), ca[ev], cb[ev])
				}
			}
		}
		if !reflect.DeepEqual(fa, fb) {
			h.fatalf(i, o, "sensor faults %v, reference %v", fa, fb)
		}
		if !a.clock.Now().Equal(b.clock.Now()) || a.clf.Calls() != b.clf.Calls() {
			h.fatalf(i, o, "clock %v / %d calls, reference %v / %d", a.clock.Now(), a.clf.Calls(), b.clock.Now(), b.clf.Calls())
		}
	}
	lat := h.eng.eng.Stats().Latency()
	bySource := 0
	for _, n := range h.eng.eng.Stats().CountBySource() {
		bySource += n
	}
	if lat.Count() != len(h.lat) || bySource != len(h.lat) {
		h.fatalf(i, o, "%d latencies and %d sources recorded, %d frames served", lat.Count(), bySource, len(h.lat))
	}
	if len(h.lat) == 0 || o.kind != opFrame {
		return
	}
	sorted := slices.Clone(h.lat)
	slices.Sort(sorted)
	for _, p := range []float64{1, 50, 90, 99} {
		exact := sorted[max(int(p/100*float64(len(sorted))+0.5)-1, 0)]
		if got := lat.Percentile(p); got < exact || got > exact+exact/16 {
			h.fatalf(i, o, "P%v = %v, exact %v", p, got, exact)
		}
	}
}

// runModel plays ops through cell on st from frame start and returns
// what the run reached: results by source and rung, errors, and every
// nonzero event counter and store tally.
func runModel(t *testing.T, cell modelCell, st diffStream, start int, ops []modelOp) map[string]int {
	t.Helper()
	h := newModelHarness(t, cell, st, start)
	for i, o := range ops {
		h.step(i, o)
	}
	counts, _ := h.eng.counts()
	for ev, n := range counts {
		if n > 0 {
			h.reached["event:"+metrics.Event(ev).String()] += int(n)
		}
	}
	s := h.eng.store
	h.reached["store:evictions"] += s.Evictions()
	h.reached["store:quarantined"] += s.QuarantineStats().Total
	return h.reached
}

// modelSeeds is the fixed seed set every cell replays.
const modelSeeds = 3

// TestEngineModel replays the fixed seeds over the whole grid: cell c
// runs seed s on stream c+s from frame 53·s.
func TestEngineModel(t *testing.T) {
	streams := modelStreams(t)
	reached := map[string]int{}
	for c, cell := range modelGrid() {
		t.Run(cell.name(), func(t *testing.T) {
			for seed := int64(1); seed <= modelSeeds; seed++ {
				st := streams[(c+int(seed))%len(streams)]
				for k, n := range runModel(t, cell, st, int(seed*53), seededOps(seed, 100)) {
					reached[k] += n
				}
			}
		})
	}
	for _, k := range []string{"source:imu/none", "source:video/none", "source:local/none", "source:dnn/none",
		"source:fallback/cache-only", "source:fallback/last-result", "source:peer/none", "source:shed/overload",
		"error:bad-frame", "error:bad-imu-window", "error:refused",
		"event:repair", "event:sensor-fault", "event:watchdog-retry", "event:watchdog-trip",
		"event:watchdog-recovery", "event:watchdog-fast-fail", "event:audit", "event:audit-refuted",
		"store:evictions", "store:quarantined", "op:strictness"} {
		if reached[k] == 0 {
			t.Errorf("the grid never reached %s", k)
		}
	}
	if testing.Verbose() {
		t.Logf("reached %v", reached)
	}
}

// scenario is a run of the harness: every cell over every stream, each
// stream taken once in order, or, with seeds set, seeds op streams of
// seed+10 from frame 97·seed. The runs' summed tallies must reach every
// key of want and no key of never.
type scenario struct {
	cells       []modelCell
	streams     []diffStream
	seeds       int
	want, never []string
}

func (sc scenario) run(t *testing.T) {
	t.Helper()
	reached := map[string]int{}
	for _, st := range sc.streams {
		for _, cell := range sc.cells {
			for seed := min(sc.seeds, 1); seed <= sc.seeds; seed++ {
				start, ops := 0, make([]modelOp, len(st.frames))
				if seed > 0 {
					start, ops = 97*seed, seededOps(int64(seed+10), 150)
				}
				for k, n := range runModel(t, cell, st, start, ops) {
					reached[k] += n
				}
			}
		}
	}
	for _, k := range sc.want {
		if reached[k] == 0 {
			t.Errorf("never reached %s", k)
		}
	}
	for _, k := range sc.never {
		if reached[k] != 0 {
			t.Errorf("reached %s %d times", k, reached[k])
		}
	}
}

// withHidden is cells with the store's radius search visible and hidden.
func withHidden(cells ...modelCell) []modelCell {
	var out []modelCell
	for _, c := range cells {
		c.hidden = true
		out = append(out, c)
	}
	return append(cells, out...)
}

// clean is what no run over clean input may reach.
var clean = []string{"error:bad-frame", "error:bad-imu-window", "error:refused", "event:sensor-fault"}

// TestRadiusLookupDifferentialChurn runs the churn stream, with the
// store's radius search visible and hidden, through each condition
// under which repair must rescan rather than reuse the frame's lookup —
// revalidation (no lookup ran), a quality scale below one half (the
// lookup's radius was smaller than repair's), brownout k=1 — beside the
// default, shadow audits healing, and overload shedding to the ladder.
// Mechanisms the reference does not model run against a twin whose
// radius search is hidden.
func TestRadiusLookupDifferentialChurn(t *testing.T) {
	churn := modelStreams(t)[4:5]
	cost := cachestore.CostAware
	for _, tc := range []struct {
		name string
		sc   scenario
	}{
		{"default", scenario{cells: withHidden(modelCell{policy: cost}), want: []string{"event:repair"}}},
		{"revalidation", scenario{cells: withHidden(modelCell{policy: cost, streak: 1}), want: []string{"repair:rescan"}}},
		{"quality-scale-below-half", scenario{cells: withHidden(modelCell{policy: cost, scale: 0.4}), want: []string{"repair:rescan"}}},
		{"quality-scale-at-half", scenario{cells: withHidden(modelCell{policy: cost, scale: 0.5}), want: []string{"event:repair"}}},
		{"quality-audits-heal", scenario{cells: []modelCell{{policy: cost, extra: "audits"}}, want: []string{"event:audit-refuted"}}},
		{"brownout-first-candidate", scenario{cells: []modelCell{{policy: cost, extra: "brownout"}}, want: []string{"repair:rescan"}}},
		{"dnn-outage-degraded-serving", scenario{cells: []modelCell{{policy: cost, extra: "admission"}}, want: []string{"source:shed/overload"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.sc.streams, tc.sc.seeds = churn, modelSeeds
			tc.sc.run(t)
		})
	}
}

// TestLazyGuardMatchesEagerGuardOnCleanInput runs every clean stream,
// frame by frame, through the engine and through the order it had
// before — each frame guarded before any gate sees it, the descriptor
// summed from the pixels — and requires the same results, records,
// counters and final cache: against the reference engine, and, with the
// audit path on (which reads frames the gates did not), against an
// eager twin.
func TestLazyGuardMatchesEagerGuardOnCleanInput(t *testing.T) {
	scenario{
		cells:   []modelCell{{policy: cachestore.LRU, capacity: 128}, {policy: cachestore.LRU, capacity: 128, extra: "audits", eager: true}},
		streams: modelStreams(t)[:5],
		want:    []string{"source:imu/none", "event:audit"},
		never:   clean,
	}.run(t)
}

// TestRadiusLookupDifferentialVideoTraces: the four standard IMU+video
// traces (the E1 workload) give the same frame-by-frame results whether
// or not the engine can bound its lookups by radius — with the store's
// radius search visible and hidden, every frame matches the reference.
func TestRadiusLookupDifferentialVideoTraces(t *testing.T) {
	scenario{
		cells:   withHidden(modelCell{policy: cachestore.LRU, capacity: 128}),
		streams: modelStreams(t)[:4],
		want:    []string{"source:local/none", "source:dnn/none"},
		never:   clean,
	}.run(t)
}

// Session-level invariants hold over arbitrary workloads, in lockstep
// with the reference: every frame gets a label of the vocabulary at
// non-negative cost, the engine never errors, per-source counts sum to
// the frame total and rates are in [0,1].
func TestEngineInvariantsOnRandomWorkloads(t *testing.T) {
	scenario{
		cells:   []modelCell{{policy: cachestore.LRU, capacity: 128}},
		streams: randomStreams(t, 8),
		want:    []string{"source:dnn/none"},
		never:   clean,
	}.run(t)
}

// FuzzEngineModel reads a cell, a stream and a starting frame from the
// first three bytes and the op stream from the rest. The traces under
// testdata/fuzz/FuzzEngineModel address cells by their place in
// modelGrid: a change to the grid regenerates them.
func FuzzEngineModel(f *testing.F) {
	grid := modelGrid()
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 3+2*60)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 3 {
			return
		}
		if len(b) > 3+2*200 {
			b = b[:3+2*200]
		}
		streams := modelStreams(t)
		runModel(t, grid[int(b[0])%len(grid)], streams[int(b[1])%len(streams)], int(b[2])*3, decodeOps(b[3:]))
	})
}
