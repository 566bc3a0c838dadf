// Package core implements the paper's primary contribution: the
// approximate-caching recognition pipeline that sits in front of a
// mobile DNN classifier and reuses previous results through four
// increasingly expensive gates — inertial (IMU), video locality
// (frame difference), local approximate cache (LSH + homogenized kNN),
// and peer-to-peer — falling back to DNN inference only when every
// gate misses. Each gate is a stage of one ordered list an engine walks
// per frame (stages.go); FrameRecord says which stage served a frame.
//
// The engine charges all simulated costs (gate compute, inference
// latency, network RTTs) to an injected clock, so experiments replay a
// device trace deterministically on a virtual clock while live
// deployments use the wall clock.
package core

import (
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
	// ModeNaiveSkip reuses the last result unconditionally for
	// MaxReuseStreak frames and then runs the DNN, the point at which
	// the approx pipeline's streak forces a revalidation. It matches
	// the approx pipeline's best-case inference budget without any
	// sensing, so it isolates what the gates buy: reuse that *stops* at
	// scene changes.
	ModeNaiveSkip
)

var modeNames = [...]string{ModeNoCache: "no-cache", ModeExactCache: "exact-cache", ModeApprox: "approx-cache", ModeNaiveSkip: "naive-skip"}

// String returns the mode name.
func (m Mode) String() string {
	if m >= ModeNoCache && int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// The simulated on-device compute cost of each cache-path stage,
// calibrated to a mid-range smartphone CPU: the whole cache path costs
// single-digit milliseconds against ~100 ms-class inference. Latencies
// are charged to the engine clock; energies (in millijoules) accumulate
// in the session stats.
const (
	imuGateLatency = 200 * time.Microsecond
	diffLatency    = time.Millisecond
	featureLatency = 4 * time.Millisecond
	lookupLatency  = time.Millisecond

	imuGateEnergyMJ = 0.05
	diffEnergyMJ    = 0.3
	featureEnergyMJ = 1.2
	lookupEnergyMJ  = 0.3
)

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
	// DisableIMUGate turns the inertial gate off (ablation).
	DisableIMUGate bool
	// DisableVideoGate turns the frame-difference gate off (ablation).
	DisableVideoGate bool
	// MaxReuseStreak bounds staleness: after this many consecutive
	// reuse-served frames the pipeline forces a fresh inference (a
	// quality-control revalidation), so one wrong inference cannot
	// poison an unbounded run of reused results. Zero disables the
	// bound. The default (20) keeps the DNN running on one frame in 21
	// in the best case — the source of the "up to ~94%" latency
	// reduction ceiling. ModeNaiveSkip reuses for exactly this many
	// frames between inferences.
	MaxReuseStreak int
	// PeerBudget caps the time a frame may spend waiting on the P2P
	// gate. Peer answers arriving later are discarded (the peer is
	// charged a timeout) and the gate's cost is clipped to the budget,
	// so a slow or dead peer can never stall a frame past it. Zero
	// sets the budget to a quarter of the classifier's mean inference
	// latency — the cache must stay cheaper than the work it avoids
	// (~25 ms against a 100 ms-class model). Negative disables the
	// budget entirely.
	PeerBudget time.Duration
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
	// DisableWatchdog runs the classifier unsupervised (ablation): no
	// call deadline, no retry, no failure breaker (see watchdog.go).
	DisableWatchdog bool
	// RequestDeadline is the per-request wall-clock budget. A frame that
	// blows it is answered from the degradation ladder (typed
	// metrics.SourceShed / DegradeDeadline) instead of occupying the
	// accelerator, and the micro-batcher stale-drops it if it expires in
	// the inference queue. Deadlines are wall-clock because queueing
	// delay and accelerator occupancy are wall-clock phenomena the
	// virtual experiment clock cannot see. Zero (the default) disables
	// deadlines.
	RequestDeadline time.Duration
	// Admission turns on the AIMD overload limiter gating the DNN
	// fallback path (see internal/admission). Frames shed by the
	// limiter are answered from the degradation ladder, typed
	// SourceShed / DegradeOverload.
	Admission bool
	// IndexTuning selects nothing: every store's index is the plain
	// exact-bucket LSH index.
	//
	// Deprecated: kept only so existing callers compile; it goes with
	// the benchmark harness's last use (ROADMAP 1(A+B)).
	IndexTuning lsh.Tuning
	// Quality configures the self-healing quality layer: shadow audits
	// of cache hits, entry quarantine, and drift-adaptive gate
	// recalibration. The zero value is disabled. Only meaningful in
	// ModeApprox.
	Quality QualityConfig
}

// DefaultConfig returns the standard pipeline configuration.
func DefaultConfig() Config {
	return Config{
		Mode:             ModeApprox,
		Extractor:        feature.DefaultExtractor(),
		Vote:             lsh.DefaultVoteConfig(),
		IMU:              imu.DefaultDetectorConfig(),
		Diff:             video.DefaultDiffGateConfig(),
		MaxReuseStreak:   20,
		KeyframeCapacity: 4,
		IMUGuard:         imu.DefaultGuardConfig(),
		FrameGuard:       vision.DefaultFrameGuardConfig(),
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch c.Mode {
	case ModeNoCache, ModeExactCache, ModeApprox, ModeNaiveSkip:
	default:
		return fmt.Errorf("core: unknown mode %d", int(c.Mode))
	}
	if c.RequestDeadline < 0 {
		return fmt.Errorf("core: RequestDeadline must be non-negative, got %v", c.RequestDeadline)
	}
	if err := c.Quality.Validate(); err != nil {
		return err
	}
	if err := c.FrameGuard.Validate(); err != nil {
		return err
	}
	if c.Mode != ModeApprox {
		return nil
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
	return nil
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
	// Store is the local cache store. Required in ModeApprox. Beware
	// assigning a typed nil pointer (e.g. a nil *cachestore.Store): it
	// makes the interface non-nil but unusable.
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
	// ctrl (admission/brownout) and quality (self-healing) are shared
	// pool-wide like the watchdog; nil when disabled.
	ctrl    *admission.Controller
	quality *qualityController
	// jitterSeed seeds this session's retry jitter (see jitterSeedFor).
	jitterSeed uint64
	stages     []stage   // the frame pipeline, in order (see stageList)
	frames     sync.Pool // of *frame: Process allocates nothing

	mu        sync.RWMutex
	detector  *imu.Detector
	keyframes *video.KeyframeLibrary
	// last holds the most recent result BY VALUE: readers copy it
	// under the lock, so no caller ever shares slice-backed fields
	// with the engine's own mutable state (the multi-session pool
	// serves degraded frames from this copy concurrently).
	last    Result
	hasLast bool
	streak  int // consecutive frames served by reuse sources
	// appliedScale is the quality scale last pushed into the detector
	// and keyframe library.
	appliedScale float64
	exact        map[uint64]exactEntry
}

type exactEntry struct {
	label      string
	confidence float64
}

// New builds an engine from cfg and deps.
func New(cfg Config, deps Deps) (*Engine, error) {
	return newEngine(cfg, deps, nil, nil, nil, nil, 0)
}

// newEngine builds an engine, optionally sharing session stats, the
// watchdog, the admission controller and the quality controller with
// sibling engines (a pool shares all four: its streams share the
// accelerator and cache those protect). Nil ones get private instances
// when cfg enables them. session, the pool index, seeds retry jitter.
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
	if ctrl == nil && cfg.Admission {
		ctrl = admission.New()
	}
	// Normalize typed-nil stores: a nil *Store in the interface would
	// dodge the nil check below and crash on first use instead.
	if s, ok := deps.Store.(*cachestore.Store); ok && s == nil {
		deps.Store = nil
	}
	e := &Engine{cfg: cfg, deps: deps, stats: stats, ctrl: ctrl, jitterSeed: jitterSeedFor(session), appliedScale: 1,
		stages: stageList(cfg, ctrl != nil || cfg.RequestDeadline > 0)}
	if wd == nil {
		wd = newWatchdog(cfg.DisableWatchdog, deps.Classifier, deps.Clock, stats)
	}
	e.wd = wd
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

// SetPeers installs (or replaces) the peer client used by the P2P gate;
// its resilience counts stay in its own Health snapshot. Passing nil
// disables the gate.
func (e *Engine) SetPeers(p *p2p.Client) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.deps.Peers = p
}

// peerBudget returns the per-frame time budget for the P2P gate.
func (e *Engine) peerBudget() time.Duration {
	switch {
	case e.cfg.PeerBudget > 0:
		return e.cfg.PeerBudget
	case e.cfg.PeerBudget == 0:
		return e.deps.Classifier.Profile().MeanLatency / 4
	}
	return 0
}

// peers snapshots the current peer client.
func (e *Engine) peers() *p2p.Client {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.deps.Peers
}

// Process recognizes one frame. imuWindow carries the inertial samples
// received since the previous frame (ignored outside ModeApprox; nil
// is fine). Structurally unusable inputs return ErrBadFrame or
// ErrBadIMUWindow; lesser sensor faults are routed past the gates they
// would fool. A frame's shape is checked up front, its pixels by the
// first stage that reads them: in ModeApprox that is after the inertial
// gate, so a frame that gate answers is never read (see ErrBadFrame).
func (e *Engine) Process(im *vision.Image, imuWindow []imu.Sample) (Result, error) {
	return e.ProcessRecord(im, imuWindow, "", nil)
}

// ProcessWithTruth is Process plus ground-truth accuracy accounting.
func (e *Engine) ProcessWithTruth(im *vision.Image, imuWindow []imu.Sample, truth string) (Result, error) {
	return e.ProcessRecord(im, imuWindow, truth, nil)
}

// ProcessRecord is ProcessWithTruth (an empty truth is none) that also
// overwrites rec, unless nil, with the frame's FrameRecord.
func (e *Engine) ProcessRecord(im *vision.Image, imuWindow []imu.Sample, truth string, rec *FrameRecord) (Result, error) {
	if im == nil {
		if rec != nil {
			*rec = FrameRecord{}
		}
		e.stats.ObserveSensorFault("frame-" + vision.FrameNil.String())
		return Result{}, fmt.Errorf("%w: nil image", ErrBadFrame)
	}
	f := e.newFrame(im, imuWindow)
	defer e.frames.Put(f)
	if e.cfg.RequestDeadline > 0 { // wall clock: queues and accelerators run in it
		f.deadline = time.Now().Add(e.cfg.RequestDeadline)
	}
	var err error
	for _, s := range e.stages {
		var done bool
		if done, err = s.try(e, f); done || err != nil {
			break
		}
	}
	if rec != nil {
		*rec = f.rec
	}
	if err != nil {
		return Result{}, err
	}
	if !f.deadline.IsZero() {
		ev := metrics.EventLate
		if time.Now().Before(f.deadline) {
			ev = metrics.EventInDeadline
		}
		e.stats.Add(ev, 1)
	}
	res := f.res
	res.Latency, res.EnergyMJ = f.rec.Totals()
	e.finish(res, truth != "" && res.Label == truth, f.frameOK)
	return res, nil
}

// streakSpent reports whether MaxReuseStreak frames in a row have been
// served by reuse, so that this frame must be inferred afresh. e.mu is
// held.
func (e *Engine) streakSpent() bool {
	return e.cfg.MaxReuseStreak > 0 && e.streak >= e.cfg.MaxReuseStreak
}

// finish books a served frame and, unless the frame guard refused it
// (frameOK false), makes it the last result. The streak rule: a frame
// the DNN answered ends the reuse streak, any other answered frame
// extends it, and a refused frame does neither. A low-entropy frame says
// nothing about the scene, so its answer must not become what the
// inertial gate repeats, nor count as a revalidation of the scene.
func (e *Engine) finish(res Result, correct, frameOK bool) {
	e.deps.Clock.Sleep(res.Latency)
	e.stats.ObserveFrame(res.Source, res.Latency, res.EnergyMJ, correct)
	if res.Degradation != DegradeNone {
		e.stats.Add(metrics.EventDegradedServe, 1)
	}
	if !frameOK {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.last = res
	e.hasLast = true
	if res.Source == metrics.SourceDNN {
		e.streak = 0
	} else {
		// Degraded serves too: the DNN is re-probed until it heals.
		e.streak++
	}
}

// guardFrame is the frame guard's verdict on im, leaving in th the
// thumbnail the video gate and the extractor reuse. frameOK is false for
// a real frame with no scene information (low entropy); a structurally
// broken one is refused with ErrBadFrame.
func (e *Engine) guardFrame(im *vision.Image, th *vision.Thumb) (frameOK bool, err error) {
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

// exactHash keys a frame by its bytes, so only bit-identical renders
// collide.
func exactHash(im *vision.Image) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(im.Pix)
	return h.Sum64()
}
