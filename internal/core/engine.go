// Package core implements the paper's primary contribution: the
// approximate-caching recognition pipeline that sits in front of a
// mobile DNN classifier and reuses previous results through four
// increasingly expensive gates — inertial (IMU), video locality
// (frame difference), local approximate cache (LSH + homogenized kNN),
// and peer-to-peer — falling back to DNN inference only when every
// gate misses.
//
// The engine charges all simulated costs (gate compute, inference
// latency, network RTTs) to an injected clock, so experiments replay a
// device trace deterministically on a virtual clock while live
// deployments use the wall clock.
package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"approxcache/internal/admission"
	"approxcache/internal/cachestore"
	"approxcache/internal/dnn"
	"approxcache/internal/feature"
	"approxcache/internal/imu"
	"approxcache/internal/lsh"
	"approxcache/internal/metrics"
	"approxcache/internal/p2p"
	"approxcache/internal/simclock"
	"approxcache/internal/video"
	"approxcache/internal/vision"
)

// Mode selects the caching strategy; the non-approximate modes are the
// evaluation baselines.
type Mode int

// Supported modes.
const (
	// ModeNoCache runs the DNN on every frame.
	ModeNoCache Mode = iota + 1
	// ModeExactCache memoizes results under a quantized-pixel hash:
	// only (near-)bit-identical frames hit. This is the classical
	// memoization baseline approximate caching improves on.
	ModeExactCache
	// ModeApprox is the full approximate-caching pipeline.
	ModeApprox
	// ModeNaiveSkip reuses the last result unconditionally and runs
	// the DNN only every SkipEvery-th frame. It matches the approx
	// pipeline's inference budget without any sensing, so it isolates
	// what the gates buy: reuse that *stops* at scene changes.
	ModeNaiveSkip
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeNoCache:
		return "no-cache"
	case ModeExactCache:
		return "exact-cache"
	case ModeApprox:
		return "approx-cache"
	case ModeNaiveSkip:
		return "naive-skip"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// CostModel simulates the on-device compute cost of each cache-path
// stage. Latencies are charged to the engine clock; energies (in
// millijoules) accumulate in the session stats.
type CostModel struct {
	IMUGateLatency time.Duration
	DiffLatency    time.Duration
	FeatureLatency time.Duration
	LookupLatency  time.Duration

	IMUGateEnergyMJ float64
	DiffEnergyMJ    float64
	FeatureEnergyMJ float64
	LookupEnergyMJ  float64
}

// DefaultCostModel returns stage costs calibrated to a mid-range
// smartphone CPU: the whole cache path costs single-digit milliseconds
// against ~100 ms-class inference.
func DefaultCostModel() CostModel {
	return CostModel{
		IMUGateLatency:  200 * time.Microsecond,
		DiffLatency:     1 * time.Millisecond,
		FeatureLatency:  4 * time.Millisecond,
		LookupLatency:   1 * time.Millisecond,
		IMUGateEnergyMJ: 0.05,
		DiffEnergyMJ:    0.3,
		FeatureEnergyMJ: 1.2,
		LookupEnergyMJ:  0.3,
	}
}

// Validate reports whether the model is usable.
func (c CostModel) Validate() error {
	if c.IMUGateLatency < 0 || c.DiffLatency < 0 || c.FeatureLatency < 0 || c.LookupLatency < 0 {
		return fmt.Errorf("core: negative stage latency")
	}
	if c.IMUGateEnergyMJ < 0 || c.DiffEnergyMJ < 0 || c.FeatureEnergyMJ < 0 || c.LookupEnergyMJ < 0 {
		return fmt.Errorf("core: negative stage energy")
	}
	return nil
}

// Config parameterizes an Engine.
type Config struct {
	// Mode selects the strategy (default ModeApprox).
	Mode Mode
	// Extractor maps frames to cache keys. Defaults to
	// feature.DefaultExtractor.
	Extractor feature.Extractor
	// Vote is the local-cache acceptance policy.
	Vote lsh.VoteConfig
	// IMU configures the inertial gate.
	IMU imu.DetectorConfig
	// Diff configures the video-locality gate.
	Diff video.DiffGateConfig
	// KeyframeCapacity is how many recent recognized scenes the video
	// gate remembers; panning back to any of them reuses its result
	// directly. 1 reproduces a single-keyframe gate. Default 4.
	KeyframeCapacity int
	// Costs simulates stage compute costs.
	Costs CostModel
	// Radio prices P2P traffic for energy accounting.
	Radio p2p.RadioEnergyModel
	// DisableIMUGate turns the inertial gate off (ablation).
	DisableIMUGate bool
	// DisableVideoGate turns the frame-difference gate off (ablation).
	DisableVideoGate bool
	// DisableGossip stops sharing fresh results with peers.
	DisableGossip bool
	// DisableRepair stops purging cached entries that a fresh
	// inference contradicts (ablation).
	DisableRepair bool
	// SkipEvery, in ModeNaiveSkip, runs the DNN on every SkipEvery-th
	// frame and reuses the last result otherwise. Ignored elsewhere.
	SkipEvery int
	// MaxReuseStreak bounds staleness: after this many consecutive
	// reuse-served frames the pipeline forces a fresh inference (a
	// quality-control revalidation), so one wrong inference cannot
	// poison an unbounded run of reused results. Zero disables the
	// bound. The default (20) keeps the DNN running on ~5% of frames
	// in the best case — the source of the "up to ~94%" latency
	// reduction ceiling.
	MaxReuseStreak int
	// PeerBudget caps the time a frame may spend waiting on the P2P
	// gate. Peer answers arriving later are discarded (the peer is
	// charged a timeout) and the gate's cost is clipped to the budget,
	// so a slow or dead peer can never stall a frame past it. Zero
	// derives the budget from PeerBudgetFraction.
	PeerBudget time.Duration
	// PeerBudgetFraction, when PeerBudget is zero, sets the budget to
	// this fraction of the classifier's mean inference latency — the
	// cache must stay cheaper than the work it avoids. The default
	// (0.25) allows ~25 ms against a 100 ms-class model. Negative
	// disables the budget entirely.
	PeerBudgetFraction float64
	// IMUGuard validates each frame's IMU window before it feeds the
	// motion detector; faulty windows are routed past the inertial gate
	// (see imu.CheckWindow). The zero value checks only for corrupt
	// (non-finite, non-monotonic) data.
	IMUGuard imu.GuardConfig
	// FrameGuard validates each frame before the gates touch it. The
	// zero value checks only structural faults (nil, empty, NaN).
	FrameGuard vision.FrameGuardConfig
	// DisableSensorGuards turns both input guards off (ablation). Nil
	// frames still error: nothing downstream can use them.
	DisableSensorGuards bool
	// Watchdog supervises the classifier: call deadline, bounded retry,
	// failure breaker with a degraded-serving fallback. The zero value
	// is a transparent passthrough.
	Watchdog WatchdogConfig
	// RequestDeadline is the per-request wall-clock budget. A frame that
	// blows it is answered from the degradation ladder (typed
	// metrics.SourceShed / DegradeDeadline) instead of occupying the
	// accelerator, and the micro-batcher stale-drops it if it expires in
	// the inference queue. Deadlines are wall-clock because queueing
	// delay and accelerator occupancy are wall-clock phenomena the
	// virtual experiment clock cannot see. Zero (the default) disables
	// deadlines.
	RequestDeadline time.Duration
	// Admission configures the AIMD overload limiter gating the DNN
	// fallback path (see internal/admission). The zero value is
	// disabled; frames shed by the limiter are answered from the
	// degradation ladder, typed SourceShed / DegradeOverload.
	Admission admission.Config
	// IndexTuning configures the LSH candidate pipeline (multi-probe
	// sequence length, packed-sketch prefilter) of the cache store's
	// index. The zero value keeps the classic
	// exact-bucket pipeline. Consumed by the store constructor; the
	// engine itself only sees lookup results.
	IndexTuning lsh.Tuning
	// Quality configures the self-healing quality layer: shadow audits
	// of cache hits, entry quarantine, and drift-adaptive gate
	// recalibration. The zero value is disabled. Only meaningful in
	// ModeApprox.
	Quality QualityConfig
	// LastResultTTL bounds how stale a last-served result the
	// degradation ladder may repeat: past the TTL the last-result rung
	// falls through to the next rung (a typed error) instead of
	// parroting ancient history. Measured on the engine clock. Zero
	// (the default) keeps the rung unbounded, matching prior behavior.
	LastResultTTL time.Duration
}

// DefaultConfig returns the standard pipeline configuration.
func DefaultConfig() Config {
	return Config{
		Mode:               ModeApprox,
		Extractor:          feature.DefaultExtractor(),
		Vote:               lsh.DefaultVoteConfig(),
		IMU:                imu.DefaultDetectorConfig(),
		Diff:               video.DefaultDiffGateConfig(),
		Costs:              DefaultCostModel(),
		Radio:              p2p.DefaultRadioEnergyModel(),
		MaxReuseStreak:     20,
		KeyframeCapacity:   4,
		PeerBudgetFraction: 0.25,
		IMUGuard:           imu.DefaultGuardConfig(),
		FrameGuard:         vision.DefaultFrameGuardConfig(),
		Watchdog:           DefaultWatchdogConfig(),
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch c.Mode {
	case ModeNoCache, ModeExactCache, ModeApprox, ModeNaiveSkip:
	default:
		return fmt.Errorf("core: unknown mode %d", int(c.Mode))
	}
	if c.Mode == ModeNaiveSkip && c.SkipEvery <= 0 {
		return fmt.Errorf("core: naive-skip needs positive SkipEvery, got %d", c.SkipEvery)
	}
	if err := c.Watchdog.Validate(); err != nil {
		return err
	}
	if c.RequestDeadline < 0 {
		return fmt.Errorf("core: RequestDeadline must be non-negative, got %v", c.RequestDeadline)
	}
	if c.LastResultTTL < 0 {
		return fmt.Errorf("core: LastResultTTL must be non-negative, got %v", c.LastResultTTL)
	}
	if err := c.Quality.Validate(); err != nil {
		return err
	}
	if err := c.Admission.Validate(); err != nil {
		return err
	}
	if err := c.IndexTuning.Validate(); err != nil {
		return err
	}
	if err := c.FrameGuard.Validate(); err != nil {
		return err
	}
	if c.Mode != ModeApprox {
		return c.Costs.Validate()
	}
	if err := c.IMUGuard.Validate(); err != nil {
		return err
	}
	if c.Extractor == nil {
		return fmt.Errorf("core: nil extractor")
	}
	if err := c.Vote.Validate(); err != nil {
		return err
	}
	if err := c.IMU.Validate(); err != nil {
		return err
	}
	if err := c.Diff.Validate(); err != nil {
		return err
	}
	if c.MaxReuseStreak < 0 {
		return fmt.Errorf("core: MaxReuseStreak must be non-negative, got %d", c.MaxReuseStreak)
	}
	if c.KeyframeCapacity <= 0 {
		return fmt.Errorf("core: KeyframeCapacity must be positive, got %d", c.KeyframeCapacity)
	}
	if c.PeerBudget < 0 {
		return fmt.Errorf("core: PeerBudget must be non-negative, got %v", c.PeerBudget)
	}
	return c.Costs.Validate()
}

// Classifier is the expensive recognition computation the cache fronts.
// *dnn.Classifier implements it; live deployments can plug in any
// recognizer (e.g. real model bindings).
type Classifier interface {
	// Infer classifies im, reporting the label and its cost.
	Infer(im *vision.Image) (dnn.Inference, error)
	// Profile returns the model's cost/quality profile.
	Profile() dnn.Profile
}

var _ Classifier = (*dnn.Classifier)(nil)

// Deps are the engine's injected dependencies.
type Deps struct {
	// Clock supplies time and absorbs simulated latency. Required.
	Clock simclock.Clock
	// Classifier is the fallback DNN. Required.
	Classifier Classifier
	// Store is the local cache store — any shape (single, sharded, or
	// serialized). Required in ModeApprox. Beware assigning a typed
	// nil pointer (e.g. a nil *cachestore.Store): it makes the
	// interface non-nil but unusable.
	Store cachestore.Interface
	// Peers queries nearby devices. Optional; nil disables the peer
	// gate.
	Peers *p2p.Client
}

// Result is the recognition outcome for one frame.
type Result struct {
	// Label is the recognized class label.
	Label string
	// Confidence is the serving component's confidence.
	Confidence float64
	// Source is which pipeline stage produced the label.
	Source metrics.Source
	// Latency is the end-to-end simulated latency charged for the
	// frame.
	Latency time.Duration
	// EnergyMJ is the energy charged for the frame.
	EnergyMJ float64
	// PeerName is set when Source is SourcePeer.
	PeerName string
	// Degradation is DegradeNone on the healthy pipeline; anything else
	// means the DNN was unavailable and the answer came down the
	// fallback ladder with halved confidence.
	Degradation DegradationLevel
}

// Engine is the per-device recognition pipeline. Engine is safe for
// concurrent use, though a device naturally processes frames serially.
type Engine struct {
	cfg   Config
	deps  Deps
	stats *metrics.SessionStats
	wd    *watchdog
	// ctrl is the admission/brownout controller, shared pool-wide (nil
	// when admission control is disabled).
	ctrl *admission.Controller
	// quality is the self-healing quality controller, shared pool-wide
	// like the watchdog (nil when the quality layer is disabled).
	quality *qualityController
	// jitterSeed seeds this session's deterministic retry-jitter
	// schedule, derived from the pool session index so sibling sessions
	// never retry in lockstep.
	jitterSeed uint64

	// scratch pools per-frame working memory (feature vector, neighbor
	// buffer) so the steady-state lookup path allocates nothing even
	// under concurrent Process calls.
	scratch sync.Pool

	mu        sync.RWMutex
	detector  *imu.Detector
	keyframes *video.KeyframeLibrary
	// last holds the most recent result BY VALUE: readers copy it
	// under the lock, so no caller ever shares slice-backed fields
	// with the engine's own mutable state (the multi-session pool
	// serves degraded frames from this copy concurrently).
	last    Result
	hasLast bool
	// lastAt stamps when last was set (engine clock), so the
	// degradation ladder can age it out under LastResultTTL.
	lastAt time.Time
	streak int // consecutive frames served by reuse sources
	// appliedScale is the quality controller's gate-strictness scale
	// last pushed into the detector and keyframe library; the engine
	// re-pushes only on change.
	appliedScale float64
	exact        map[uint64]exactEntry
}

// frameScratch is one frame's reusable working memory. The feature
// vector is safe to recycle because every downstream consumer (store
// insert, peer query/gossip encoding) copies it before returning.
type frameScratch struct {
	vec   feature.Vector
	ns    []lsh.Neighbor
	thumb vision.Thumb
}

func (e *Engine) getScratch() *frameScratch {
	if sc, ok := e.scratch.Get().(*frameScratch); ok {
		return sc
	}
	return &frameScratch{}
}

type exactEntry struct {
	label      string
	confidence float64
}

// New builds an engine from cfg and deps.
func New(cfg Config, deps Deps) (*Engine, error) {
	return newEngine(cfg, deps, nil, nil, nil, nil, 0)
}

// newEngine builds an engine, optionally sharing session stats, a
// classifier watchdog, an admission controller, and a quality
// controller with sibling engines (the multi-session pool passes all
// four so every stream feeds one scoreboard, one breaker, one overload
// limiter, and one quality loop — they share the accelerator and cache
// those protect). Nil stats/wd/ctrl/qc get fresh private instances
// (ctrl only when cfg.Admission is enabled, qc only when cfg.Quality
// is). session is the pool session index; it seeds the per-session
// retry jitter.
func newEngine(cfg Config, deps Deps, stats *metrics.SessionStats, wd *watchdog, ctrl *admission.Controller, qc *qualityController, session int) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if deps.Clock == nil {
		return nil, fmt.Errorf("core: nil clock")
	}
	if deps.Classifier == nil {
		return nil, fmt.Errorf("core: nil classifier")
	}
	if stats == nil {
		stats = metrics.NewSessionStats()
	}
	if ctrl == nil && cfg.Admission.Enabled {
		var err error
		ctrl, err = admission.New(cfg.Admission)
		if err != nil {
			return nil, err
		}
		s := stats
		ctrl.SetTransitionHook(func(from, to admission.Level) {
			ev := metrics.EventBrownoutLowered
			if to > from {
				ev = metrics.EventBrownoutRaised
			}
			s.Add(ev, 1)
		})
	}
	// Normalize typed-nil stores: a nil *Store in the interface would
	// dodge the nil check below and crash on first use instead.
	switch st := deps.Store.(type) {
	case *cachestore.Store:
		if st == nil {
			deps.Store = nil
		}
	case *cachestore.ShardedStore:
		if st == nil {
			deps.Store = nil
		}
	case *cachestore.SerializedStore:
		if st == nil {
			deps.Store = nil
		}
	}
	e := &Engine{cfg: cfg, deps: deps, stats: stats, ctrl: ctrl, jitterSeed: jitterSeedFor(session), appliedScale: 1}
	if wd == nil {
		wd = newWatchdog(cfg.Watchdog, deps.Classifier, deps.Clock, stats)
	}
	e.wd = wd
	if deps.Peers != nil {
		deps.Peers.SetObserver(statsObserver{s: e.stats})
	}
	if cfg.Mode == ModeExactCache {
		e.exact = make(map[uint64]exactEntry)
	}
	if cfg.Mode == ModeApprox {
		if deps.Store == nil {
			return nil, fmt.Errorf("core: approx mode needs a store")
		}
		det, err := imu.NewDetector(cfg.IMU)
		if err != nil {
			return nil, err
		}
		lib, err := video.NewKeyframeLibrary(cfg.Diff, cfg.KeyframeCapacity)
		if err != nil {
			return nil, err
		}
		e.detector = det
		e.keyframes = lib
		if qc == nil && cfg.Quality.Enabled {
			qc = newQualityController(cfg.Quality, deps.Classifier, deps.Store, stats, ctrl)
		}
		e.quality = qc
	}
	return e, nil
}

// jitterSeedFor spreads session indices across the 64-bit space so the
// watchdog's per-session retry jitter diverges even for adjacent ids.
func jitterSeedFor(session int) uint64 {
	return (uint64(session) + 1) * 0x9e3779b97f4a7c15
}

// Stats returns the engine's session statistics.
func (e *Engine) Stats() *metrics.SessionStats { return e.stats }

// AdmissionSnapshot returns the overload controller's state; ok is
// false when admission control is disabled.
func (e *Engine) AdmissionSnapshot() (admission.Snapshot, bool) {
	if e.ctrl == nil {
		return admission.Snapshot{}, false
	}
	return e.ctrl.Snapshot(), true
}

// statsObserver forwards the peer client's resilience events into the
// engine's session stats.
type statsObserver struct{ s *metrics.SessionStats }

func (o statsObserver) PeerTimeout(string)     { o.s.Add(metrics.EventPeerTimeout, 1) }
func (o statsObserver) BreakerTrip(string)     { o.s.Add(metrics.EventBreakerTrip, 1) }
func (o statsObserver) BreakerRecovery(string) { o.s.Add(metrics.EventBreakerRecovery, 1) }

// SetPeers installs (or replaces) the peer client used by the P2P gate
// and wires its resilience events (timeouts, breaker trips/recoveries)
// into the session stats. Passing nil disables the gate.
func (e *Engine) SetPeers(p *p2p.Client) {
	if p != nil {
		p.SetObserver(statsObserver{s: e.stats})
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.deps.Peers = p
}

// peerBudget returns the per-frame time budget for the P2P gate.
func (e *Engine) peerBudget() time.Duration {
	if e.cfg.PeerBudget > 0 {
		return e.cfg.PeerBudget
	}
	if e.cfg.PeerBudgetFraction > 0 {
		mean := e.deps.Classifier.Profile().MeanLatency
		return time.Duration(e.cfg.PeerBudgetFraction * float64(mean))
	}
	return 0
}

// peers snapshots the current peer client.
func (e *Engine) peers() *p2p.Client {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.deps.Peers
}

// Mode returns the engine's mode.
func (e *Engine) Mode() Mode { return e.cfg.Mode }

// LastResult returns a copy of the most recent result, if any. The
// copy is taken under the read lock and Result carries no slice-backed
// fields, so callers never alias engine-internal state.
func (e *Engine) LastResult() (Result, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.last, e.hasLast
}

// Process recognizes one frame. imuWindow carries the inertial samples
// received since the previous frame (ignored outside ModeApprox; nil
// is fine when unavailable). Structurally unusable inputs return
// ErrBadFrame or ErrBadIMUWindow; lesser sensor faults are routed past
// the gates they would fool. Use ProcessWithTruth in experiments so
// accuracy is tracked.
//
// A frame's shape (nil, zero-sized, a pixel buffer that is not W×H) is
// checked up front. Its pixels are checked by the first stage that reads
// them: in ModeApprox that is after the inertial gate, so a frame that
// gate answers is never read at all — a non-finite pixel in it goes
// unnoticed, exactly as a covered lens always has (see ErrBadFrame).
func (e *Engine) Process(im *vision.Image, imuWindow []imu.Sample) (Result, error) {
	return e.process(im, imuWindow, "", false)
}

// ProcessWithTruth is Process plus ground-truth accuracy accounting.
func (e *Engine) ProcessWithTruth(im *vision.Image, imuWindow []imu.Sample, truth string) (Result, error) {
	return e.process(im, imuWindow, truth, true)
}

// guardFrame is a frame's one pass over its pixels: the frame guard's
// verdict, and in th the thumbnail that the video gate matches and
// stores and the extractor takes its grid half from, instead of each
// summarising the frame again. Whoever is first to read a frame's pixels
// calls it first. frameOK is false for a frame that is real but carries
// no scene information (low entropy: recognizable by the DNN alone, at
// best); a structurally broken frame is refused with ErrBadFrame. With
// the guards disabled the frame is only summarised.
func (e *Engine) guardFrame(im *vision.Image, th *vision.Thumb) (frameOK bool, err error) {
	if e.cfg.DisableSensorGuards {
		th.Fill(im)
		return true, nil
	}
	f := vision.CheckFrameThumb(im, e.cfg.FrameGuard, th)
	if f == vision.FrameOK {
		return true, nil
	}
	e.stats.ObserveSensorFault("frame-" + f.String())
	if f.Structural() {
		return false, fmt.Errorf("%w: %s", ErrBadFrame, f)
	}
	return false, nil
}

func (e *Engine) process(im *vision.Image, imuWindow []imu.Sample, truth string, haveTruth bool) (Result, error) {
	// Sensor guards: structurally broken inputs are refused with typed
	// errors; quality faults are routed past the gates they would fool.
	// A frame's shape is checked here, in O(1); its pixels by guardFrame,
	// which ModeApprox defers until a stage is about to read them.
	approx := e.cfg.Mode == ModeApprox
	if im == nil {
		e.stats.ObserveSensorFault("frame-" + vision.FrameNil.String())
		return Result{}, fmt.Errorf("%w: nil image", ErrBadFrame)
	}
	if !e.cfg.DisableSensorGuards {
		if !im.WellFormed() {
			e.stats.ObserveSensorFault("frame-" + vision.FrameEmpty.String())
			return Result{}, fmt.Errorf("%w: %s", ErrBadFrame, vision.FrameEmpty)
		}
		if !approx {
			// The baselines read every frame, so they guard every frame;
			// a low-entropy frame is still theirs to classify.
			var th vision.Thumb
			if _, err := e.guardFrame(im, &th); err != nil {
				return Result{}, err
			}
		}
	}
	imuOK := true
	if approx && !e.cfg.DisableSensorGuards {
		if wf := imu.CheckWindow(imuWindow, e.cfg.IMUGuard); wf != imu.WindowOK {
			e.stats.ObserveSensorFault("imu-" + wf.String())
			if wf == imu.WindowNonFinite {
				return Result{}, fmt.Errorf("%w: %s", ErrBadIMUWindow, wf)
			}
			imuOK = false
		}
	}
	// The request deadline is wall-clock: queueing delay and accelerator
	// occupancy — the things that blow it under overload — happen in
	// real time, invisible to a virtual experiment clock.
	var deadline time.Time
	if e.cfg.RequestDeadline > 0 {
		deadline = time.Now().Add(e.cfg.RequestDeadline)
	}
	var res Result
	var err error
	switch e.cfg.Mode {
	case ModeNoCache:
		res, err = e.processNoCache(im, deadline)
	case ModeExactCache:
		res, err = e.processExact(im, deadline)
	case ModeNaiveSkip:
		res, err = e.processNaiveSkip(im, deadline)
	default:
		res, err = e.processApprox(im, imuWindow, imuOK, deadline)
	}
	if !deadline.IsZero() && err == nil {
		ev := metrics.EventLate
		if time.Now().Before(deadline) {
			ev = metrics.EventInDeadline
		}
		e.stats.Add(ev, 1)
	}
	if err != nil {
		return Result{}, err
	}
	e.deps.Clock.Sleep(res.Latency)
	correct := haveTruth && res.Label == truth
	e.stats.ObserveFrame(res.Source, res.Latency, res.EnergyMJ, correct)
	if res.Degradation != DegradeNone {
		e.stats.Add(metrics.EventDegradedServe, 1)
	}
	e.mu.Lock()
	e.last = res
	e.hasLast = true
	if res.Degradation == DegradeNone {
		// Only non-degraded serves refresh the staleness stamp: a
		// ladder answer is a replay of history, and letting a replay
		// renew its own age would defeat LastResultTTL.
		e.lastAt = e.deps.Clock.Now()
	}
	if res.Source == metrics.SourceDNN {
		e.streak = 0
	} else {
		// Degraded serves extend the streak too, keeping revalidation
		// pressure on: the pipeline re-probes the DNN (cheaply, through
		// the breaker) every frame until it heals.
		e.streak++
	}
	e.mu.Unlock()
	return res, nil
}

func (e *Engine) processNoCache(im *vision.Image, deadline time.Time) (Result, error) {
	inf, penalty, err := e.wd.infer(im, deadline, e.jitterSeed)
	if err != nil {
		return Result{}, fmt.Errorf("infer: %w", err)
	}
	return Result{
		Label:      inf.Label,
		Confidence: inf.Confidence,
		Source:     metrics.SourceDNN,
		Latency:    penalty + inf.Latency,
		EnergyMJ:   inf.EnergyMJ,
	}, nil
}

// processNaiveSkip reuses the last result blindly, inferring only every
// SkipEvery-th frame. The reuse is attributed to SourceVideo (it is a
// crude temporal-locality heuristic) so reports separate it from DNN
// work. With the DNN down, a due inference degrades to repeating the
// last result — the baseline has no cache to fall back on.
func (e *Engine) processNaiveSkip(im *vision.Image, deadline time.Time) (Result, error) {
	e.mu.Lock()
	last, hasLast := e.last, e.hasLast // copied under the lock
	skip := hasLast && (e.streak+1)%e.cfg.SkipEvery != 0
	e.mu.Unlock()
	if skip {
		return Result{
			Label:      last.Label,
			Confidence: last.Confidence,
			Source:     metrics.SourceVideo,
			Latency:    e.cfg.Costs.IMUGateLatency,
			EnergyMJ:   e.cfg.Costs.IMUGateEnergyMJ,
		}, nil
	}
	res, err := e.processNoCache(im, deadline)
	if err != nil && hasLast {
		return Result{
			Label:       last.Label,
			Confidence:  last.Confidence * fallbackConfidence,
			Source:      metrics.SourceFallback,
			Latency:     e.cfg.Costs.IMUGateLatency,
			EnergyMJ:    e.cfg.Costs.IMUGateEnergyMJ,
			Degradation: DegradeLastResult,
		}, nil
	}
	return res, err
}

// exactHashLevels quantizes pixels before hashing so that bit-identical
// renders (and only those, in practice) collide.
const exactHashLevels = 64

func exactHash(im *vision.Image) uint64 {
	h := fnv.New64a()
	var b [1]byte
	for _, p := range im.Pix {
		q := int(p * exactHashLevels)
		if q >= exactHashLevels {
			q = exactHashLevels - 1
		}
		b[0] = byte(q)
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}

func (e *Engine) processExact(im *vision.Image, deadline time.Time) (Result, error) {
	key := exactHash(im)
	cost := e.cfg.Costs.DiffLatency // hashing is diff-class work
	energy := e.cfg.Costs.DiffEnergyMJ
	e.mu.Lock()
	entry, ok := e.exact[key]
	e.mu.Unlock()
	if ok {
		return Result{
			Label:      entry.label,
			Confidence: entry.confidence,
			Source:     metrics.SourceLocal,
			Latency:    cost,
			EnergyMJ:   energy,
		}, nil
	}
	inf, penalty, err := e.wd.infer(im, deadline, e.jitterSeed)
	if err != nil {
		return Result{}, fmt.Errorf("infer: %w", err)
	}
	e.mu.Lock()
	e.exact[key] = exactEntry{label: inf.Label, confidence: inf.Confidence}
	e.mu.Unlock()
	return Result{
		Label:      inf.Label,
		Confidence: inf.Confidence,
		Source:     metrics.SourceDNN,
		Latency:    cost + penalty + inf.Latency,
		EnergyMJ:   energy + inf.EnergyMJ,
	}, nil
}

// processApprox runs the 4-gate pipeline. imuOK reports whether the
// sensor guard trusted the IMU window: an untrusted one skips the
// detector feed and the inertial gate. The frame is guarded once the
// inertial gate has passed on it (guardFrame): an untrusted
// (low-entropy) frame skips the video gate, the cache gates, and every
// cache mutation — its features would be meaningless — leaving only the
// DNN.
func (e *Engine) processApprox(im *vision.Image, imuWindow []imu.Sample, imuOK bool, deadline time.Time) (Result, error) {
	// Brownout level snapshot: under sustained overload the controller
	// disables the expensive reuse stages (first P2P, then the kNN
	// vote), keeping the nearly-free IMU and video gates.
	brownout := admission.LevelFull
	if e.ctrl != nil {
		brownout = e.ctrl.Level()
	}
	// Quality layer: a reuse-refusal burst forces this frame to
	// revalidate; the gate-strictness scale (1 when healthy) shrinks
	// every reuse gate when shadow audits find accuracy drifting.
	forcedReval := false
	scale := 1.0
	if e.quality != nil {
		forcedReval = e.quality.consumeRefusal()
		scale = e.quality.scale()
	}
	e.mu.Lock()
	if e.quality != nil && scale != e.appliedScale {
		e.detector.SetStrictness(scale)
		e.keyframes.SetStrictness(scale)
		e.appliedScale = scale
	}
	if imuOK {
		e.detector.ObserveAll(imuWindow)
	}
	last, hasLast := e.last, e.hasLast
	// Bounded staleness: once a reuse streak reaches the cap, force a
	// fresh inference so a single wrong result cannot serve forever.
	revalidate := forcedReval || (e.cfg.MaxReuseStreak > 0 && e.streak >= e.cfg.MaxReuseStreak)
	var latency time.Duration
	var energy float64

	// Gate 1: inertial reuse. If the device has not moved since the
	// last verified recognition, return it at near-zero cost.
	if imuOK && !revalidate && !e.cfg.DisableIMUGate && hasLast {
		latency += e.cfg.Costs.IMUGateLatency
		energy += e.cfg.Costs.IMUGateEnergyMJ
		if e.detector.AllowReuse() {
			res := Result{
				Label:      last.Label,
				Confidence: last.Confidence,
				Source:     metrics.SourceIMU,
				Latency:    latency,
				EnergyMJ:   energy,
			}
			e.mu.Unlock()
			// Nothing has read the frame; an audit, if one falls due, is
			// its first reader.
			e.maybeAudit(im, false, res.Label, nil, deadline)
			return res, nil
		}
	}
	e.mu.Unlock()

	// Every later stage reads the pixels, so this is where the frame pays
	// for its one guarded pass over them.
	var thumb vision.Thumb
	frameOK, err := e.guardFrame(im, &thumb)
	if err != nil {
		return Result{}, err
	}

	// Gate 2: video locality. A coarse-to-fine pixel diff against the
	// recent recognized keyframes catches temporal locality the IMU
	// missed — including panning back to a scene seen a few keyframes ago.
	if frameOK && !revalidate && !e.cfg.DisableVideoGate {
		e.mu.Lock()
		if e.keyframes.Len() > 0 {
			latency += e.cfg.Costs.DiffLatency
			energy += e.cfg.Costs.DiffEnergyMJ
			if kf, ok := e.keyframes.MatchThumb(im, &thumb); ok {
				res := Result{
					Label:      kf.Label,
					Confidence: kf.Confidence,
					Source:     metrics.SourceVideo,
					Latency:    latency,
					EnergyMJ:   energy,
				}
				e.mu.Unlock()
				e.maybeAudit(im, true, res.Label, nil, deadline)
				return res, nil
			}
		}
		e.mu.Unlock()
	}

	// Gate 3: local approximate cache. The feature vector and neighbor
	// buffer come from the engine's scratch pool: the extractor writes
	// into the reused vector and the index ranks into the reused
	// buffer, so a steady-state frame allocates nothing here.
	var vec feature.Vector
	var sc *frameScratch
	// looked is this frame's own lookup result when it covers everything
	// cache repair would search for (see repairContradicted).
	var looked []lsh.Neighbor
	haveLooked := false
	peers := e.peers()
	if frameOK {
		latency += e.cfg.Costs.FeatureLatency
		energy += e.cfg.Costs.FeatureEnergyMJ
		sc = e.getScratch()
		defer e.scratch.Put(sc)
		// The extractor sits behind an interface, and a pointer passed
		// through one escapes: handing it the stack thumbnail would move
		// that to the heap on every frame, so it gets a copy in the
		// pooled scratch, which lives there already.
		sc.thumb = thumb
		vec, err = feature.ExtractThumbInto(e.cfg.Extractor, im, &sc.thumb, sc.vec)
		if err != nil {
			return Result{}, fmt.Errorf("extract: %w", err)
		}
		sc.vec = vec
	}
	if frameOK && !revalidate {
		latency += e.cfg.Costs.LookupLatency
		energy += e.cfg.Costs.LookupEnergyMJ
		// The quality controller's strictness scale shrinks the reuse
		// radius when live accuracy drifts below target (a stack copy;
		// the configured policy is never mutated).
		vote := e.cfg.Vote
		vote.MaxDistance *= scale
		k := vote.K
		if brownout >= admission.LevelFirstCandidate {
			k = 1
		}
		ns, err := cachestore.NearestWithinInto(e.deps.Store, vec, k, vote.MaxDistance, sc.ns)
		if err != nil {
			return Result{}, fmt.Errorf("nearest: %w", err)
		}
		sc.ns = ns[:0]
		if k == e.cfg.Vote.K && vote.MaxDistance >= e.cfg.Vote.MaxDistance/2 {
			// Nothing below writes the scratch buffer before repair
			// runs, so ns stays valid until then.
			looked, haveLooked = ns, true
		}
		var verdict lsh.Verdict
		if brownout >= admission.LevelFirstCandidate {
			// Deep brownout: skip the homogenized-kNN vote and serve the
			// nearest in-range candidate directly. Cheaper and less
			// verified — acceptable exactly because the alternative
			// under this much pressure is shedding the frame entirely.
			if len(ns) > 0 && ns[0].Distance <= vote.MaxDistance {
				if label, conf, ok := cachestore.Answer(e.deps.Store, ns[0].ID); ok {
					verdict = lsh.Verdict{Accepted: true, Label: label, Confidence: conf}
				}
			}
		} else if verdict, err = lsh.Vote(ns, e.deps.Store.Label, vote); err != nil {
			return Result{}, fmt.Errorf("vote: %w", err)
		}
		if verdict.Accepted {
			if len(ns) > 0 {
				e.deps.Store.Touch(ns[0].ID)
			}
			res := Result{
				Label:      verdict.Label,
				Confidence: verdict.Confidence,
				Source:     metrics.SourceLocal,
				Latency:    latency,
				EnergyMJ:   energy,
			}
			e.refreshScene(im, &thumb, res.Label, res.Confidence)
			if e.quality != nil {
				// The in-range neighbors backed this serve; an audit
				// will confirm or refute them by ID.
				var aud [maxAuditIDs]lsh.ID
				an := 0
				for _, n := range ns {
					if an == len(aud) || n.Distance > vote.MaxDistance {
						break
					}
					aud[an] = n.ID
					an++
				}
				e.maybeAudit(im, true, res.Label, aud[:an], deadline)
			}
			return res, nil
		}

		// Gate 4: peer-to-peer reuse, under a per-frame time budget so
		// a dead or slow peer can never stall the frame past it. When
		// every peer's circuit is open the gate is skipped at zero
		// cost: the local gates and the DNN keep serving while the
		// breaker re-probes peers on its backoff schedule. Brownout
		// disables the gate first — it is the most expensive reuse
		// stage and the node is already short on time.
		budget := e.peerBudget()
		peerTime := true
		if !deadline.IsZero() {
			// The peer budget cannot exceed what is left of the request
			// deadline; with the budget gone the gate is skipped
			// entirely (the fallback's deadline check sheds the frame).
			// QueryFrame reads budget 0 as unbounded, so an exhausted
			// deadline must skip, not cap to zero.
			remaining := time.Until(deadline)
			if remaining <= 0 {
				peerTime = false
			} else if budget == 0 || remaining < budget {
				budget = remaining
			}
		}
		if peers != nil && peerTime && brownout < admission.LevelNoPeer {
			out, err := peers.QueryFrame(vec, budget)
			if err != nil {
				return Result{}, fmt.Errorf("peer query: %w", err)
			}
			if out.Degraded {
				e.stats.Add(metrics.EventDegradedFrame, 1)
			}
			if out.Queried > 0 {
				latency += out.Cost
				reqSize := p2p.QueryWireSize(len(vec))
				energy += e.cfg.Radio.RTTCost(reqSize, 32)
				e.stats.Add(metrics.EventPeerQuery, 1)
				if out.Found {
					e.stats.Add(metrics.EventPeerHit, 1)
				}
			}
			if out.Found {
				hit := out.Hit
				// Adopt the peer's answer locally so the next similar
				// frame hits gate 3.
				pid, err := e.deps.Store.Insert(vec, hit.Label, hit.Confidence, "peer",
					e.deps.Classifier.Profile().MeanLatency)
				if err != nil {
					return Result{}, fmt.Errorf("adopt peer hit: %w", err)
				}
				res := Result{
					Label:      hit.Label,
					Confidence: hit.Confidence,
					Source:     metrics.SourcePeer,
					Latency:    latency,
					EnergyMJ:   energy,
					PeerName:   hit.Peer,
				}
				e.refreshScene(im, &thumb, res.Label, res.Confidence)
				if e.quality != nil {
					// Audit the adopted entry: a peer's bad answer must
					// accrue refutes here, not just on the peer.
					aud := [1]lsh.ID{pid}
					e.maybeAudit(im, true, res.Label, aud[:], deadline)
				}
				return res, nil
			}
		}
	}

	// Fallback: run the DNN under the watchdog — but overload protection
	// first. A frame that has already blown its deadline, or that the
	// admission limiter refuses, is answered from the degradation ladder
	// instead of occupying the accelerator.
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		e.stats.Add(metrics.EventExpiredDrop, 1)
		return e.serveShed(vec, sc, frameOK, latency, energy, DegradeDeadline, ErrDeadlineExceeded)
	}
	if e.ctrl != nil && !e.ctrl.TryAcquire() {
		e.stats.Add(metrics.EventShed, 1)
		return e.serveShed(vec, sc, frameOK, latency, energy, DegradeOverload, ErrOverloadShed)
	}
	inf, penalty, ierr := e.wd.infer(im, deadline, e.jitterSeed)
	if e.ctrl != nil {
		// Complete the admitted slot: queue refusals back the limit off
		// as overflow; everything else reports whether the frame is
		// still inside its budget (AIMD increase or backoff).
		if dnn.IsOverloadError(ierr) {
			e.ctrl.ReleaseOverflow()
		} else {
			e.ctrl.Release(deadline.IsZero() || time.Now().Before(deadline))
		}
	}
	latency += penalty
	if ierr != nil {
		switch {
		case errors.Is(ierr, dnn.ErrExpiredInQueue):
			e.stats.Add(metrics.EventExpiredDrop, 1)
			return e.serveShed(vec, sc, frameOK, latency, energy, DegradeDeadline, ierr)
		case errors.Is(ierr, dnn.ErrQueueFull):
			e.stats.Add(metrics.EventShed, 1)
			return e.serveShed(vec, sc, frameOK, latency, energy, DegradeOverload, ierr)
		}
		return e.serveDegraded(vec, sc, frameOK, latency, energy, ierr)
	}
	latency += inf.Latency
	energy += inf.EnergyMJ
	if frameOK {
		if !e.cfg.DisableRepair {
			// Cache repair: entries sitting where we just looked,
			// carrying a different label, are contradicted by fresh
			// evidence — purge them so they stop winning votes.
			e.stats.Add(metrics.EventRepair, e.repairContradicted(vec, inf.Label, sc, looked, haveLooked))
		}
		if _, err := e.deps.Store.Insert(vec, inf.Label, inf.Confidence, "dnn", inf.Latency); err != nil {
			return Result{}, fmt.Errorf("cache insert: %w", err)
		}
		if peers != nil && !e.cfg.DisableGossip {
			// Gossip is asynchronous on a real device: it costs radio
			// energy but does not extend the frame's latency.
			if _, err := peers.Gossip(vec, inf.Label, inf.Confidence, inf.Latency); err == nil {
				size := p2p.GossipWireSize(len(vec), len(inf.Label))
				energy += e.cfg.Radio.MessageCost(size) * float64(len(peers.Peers()))
			}
		}
	}
	res := Result{
		Label:      inf.Label,
		Confidence: inf.Confidence,
		Source:     metrics.SourceDNN,
		Latency:    latency,
		EnergyMJ:   energy,
	}
	if frameOK {
		e.refreshScene(im, &thumb, res.Label, res.Confidence)
	}
	return res, nil
}

// fallbackConfidence discounts degraded answers: the pipeline cannot
// verify them, so it halves the confidence it reports.
const fallbackConfidence = 0.5

// fallbackRadiusFactor relaxes the cache acceptance radius for degraded
// serving: with the DNN down, a merely-nearby answer beats none.
const fallbackRadiusFactor = 2.0

// serveDegraded walks the degradation ladder after a failed inference:
// the nearest cached entry within a relaxed radius, then the last
// served result, then — with nothing left to say — the error itself.
// Degraded answers carry halved confidence, SourceFallback, and the
// ladder level, so callers and metrics can tell them apart.
func (e *Engine) serveDegraded(vec feature.Vector, sc *frameScratch, haveVec bool, latency time.Duration, energy float64, cause error) (Result, error) {
	if haveVec {
		latency += e.cfg.Costs.LookupLatency
		energy += e.cfg.Costs.LookupEnergyMJ
		radius := fallbackRadiusFactor * e.cfg.Vote.MaxDistance
		if ns, err := cachestore.NearestWithinInto(e.deps.Store, vec, 1, radius, sc.ns); err == nil {
			if len(ns) > 0 && ns[0].Distance <= radius {
				if label, conf, ok := cachestore.Answer(e.deps.Store, ns[0].ID); ok {
					e.deps.Store.Touch(ns[0].ID)
					sc.ns = ns[:0]
					return Result{
						Label:       label,
						Confidence:  conf * fallbackConfidence,
						Source:      metrics.SourceFallback,
						Latency:     latency,
						EnergyMJ:    energy,
						Degradation: DegradeCacheOnly,
					}, nil
				}
			}
			sc.ns = ns[:0]
		}
	}
	if last, ok := e.lastResultFresh(); ok {
		return Result{
			Label:       last.Label,
			Confidence:  last.Confidence * fallbackConfidence,
			Source:      metrics.SourceFallback,
			Latency:     latency,
			EnergyMJ:    energy,
			Degradation: DegradeLastResult,
		}, nil
	}
	return Result{}, fmt.Errorf("recognition unavailable: %w", cause)
}

// lastResultFresh returns the last result for degraded serving, unless
// LastResultTTL is set and the result has outlived it — a ladder that
// would otherwise repeat arbitrarily ancient history falls through to
// the next rung instead.
func (e *Engine) lastResultFresh() (Result, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if !e.hasLast {
		return Result{}, false
	}
	if e.cfg.LastResultTTL > 0 && e.deps.Clock.Now().Sub(e.lastAt) > e.cfg.LastResultTTL {
		return Result{}, false
	}
	return e.last, true
}

// maybeAudit forwards a reuse serve to the quality controller's shadow
// auditor. guarded says whether im has been through guardFrame; a frame
// the inertial gate served has not, and the audit guards it before the
// classifier reads it. ids are the cache entries that backed the serve;
// the controller copies them before returning, so scratch-backed slices
// are safe to pass.
func (e *Engine) maybeAudit(im *vision.Image, guarded bool, served string, ids []lsh.ID, deadline time.Time) {
	if e.quality == nil {
		return
	}
	e.quality.maybeAudit(e, im, guarded, served, ids, deadline)
}

// serveShed answers a frame that overload protection kept off the
// accelerator — admission shed, queue overflow, or a blown deadline —
// from the same ladder as serveDegraded, retyped metrics.SourceShed
// with the overload marker so callers can tell load shedding apart from
// classifier failure. Like every degraded serve, the answer is never a
// silent drop: it is a typed, reduced-confidence result, or the typed
// cause when the ladder is empty.
func (e *Engine) serveShed(vec feature.Vector, sc *frameScratch, haveVec bool, latency time.Duration, energy float64, marker DegradationLevel, cause error) (Result, error) {
	res, err := e.serveDegraded(vec, sc, haveVec, latency, energy, cause)
	if err != nil {
		return res, err
	}
	res.Source = metrics.SourceShed
	res.Degradation = marker
	return res, nil
}

// repairContradicted removes cached entries within half the reuse
// radius of vec whose label differs from freshLabel. Any such entry
// would have claimed this very lookup, and the DNN just disagreed.
//
// "Where we just looked" is literal: when looked is set, ns is the
// result of this frame's own lookup — the same query at the full vote
// K and at least the repair radius — and is reused instead of scanning
// the index a second time. Otherwise (the lookup was skipped by a
// revalidation, ran at brownout k=1, or ran at a radius the quality
// scale had shrunk below the repair radius) repair scans for itself,
// into the frame's scratch buffer. Reuse sees the cache as of the
// lookup: an entry another session inserted while this frame was in
// inference is not repaired by it.
func (e *Engine) repairContradicted(vec feature.Vector, freshLabel string, sc *frameScratch, ns []lsh.Neighbor, looked bool) int {
	radius := e.cfg.Vote.MaxDistance / 2
	if !looked {
		var err error
		if ns, err = cachestore.NearestWithinInto(e.deps.Store, vec, e.cfg.Vote.K, radius, sc.ns); err != nil {
			return 0
		}
		sc.ns = ns[:0]
	}
	removed := 0
	for _, n := range ns {
		if n.Distance > radius {
			break // sorted by distance: the rest are farther
		}
		if label, ok := e.deps.Store.Label(n.ID); ok && label != freshLabel {
			e.deps.Store.Remove(n.ID)
			removed++
		}
	}
	return removed
}

// refreshScene re-anchors the cheap gates after a verified recognition:
// the frame joins the keyframe library and the rotation integrator
// resets.
func (e *Engine) refreshScene(im *vision.Image, thumb *vision.Thumb, label string, confidence float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.keyframes.PushThumb(im, thumb, label, confidence)
	e.detector.Mark()
}
