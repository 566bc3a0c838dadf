// Package approxcache is an in-memory approximate-caching layer for
// mobile image recognition, reproducing "Poster: Approximate Caching
// for Mobile Image Recognition" (Mariani, Han, Xiao — ICDCS 2021).
//
// A Cache fronts an expensive image classifier and reuses previous
// recognition results through four gates, cheapest first:
//
//  1. Inertial gate — the device has not moved, so the scene has not
//     changed (smartphone IMU).
//  2. Video-locality gate — the frame is nearly identical to the last
//     recognized keyframe (temporal locality of video streams).
//  3. Local approximate cache — an LSH-indexed feature lookup with a
//     homogenized-kNN acceptance vote.
//  4. Peer-to-peer reuse — nearby devices answer cache queries over an
//     infrastructure-less protocol and receive gossiped results.
//
// Only when every gate misses does the classifier run; its result is
// cached locally and shared with peers.
//
// Quickstart:
//
//	spec := approxcache.StandardWorkloads(600, 1)[0]
//	w, _ := approxcache.GenerateWorkload(spec)
//	clf, _ := approxcache.NewSimulatedClassifier(approxcache.MobileNetV2, w, 1)
//	cache, _ := approxcache.New(clf, approxcache.Options{Clock: approxcache.NewVirtualClock()})
//	for _, frame := range w.Frames {
//		res, _ := cache.ProcessWithTruth(frame.Image, nil, approxcache.LabelOf(frame.Class))
//		_ = res
//	}
//	fmt.Println(cache.Stats().HitRate())
package approxcache

import (
	"fmt"
	"time"

	"approxcache/internal/admission"
	"approxcache/internal/cachestore"
	"approxcache/internal/core"
	"approxcache/internal/dnn"
	"approxcache/internal/imu"
	"approxcache/internal/lsh"
	"approxcache/internal/metrics"
	"approxcache/internal/p2p"
	"approxcache/internal/simclock"
	"approxcache/internal/simnet"
	"approxcache/internal/trace"
	"approxcache/internal/video"
	"approxcache/internal/vision"
)

// Re-exported types. These aliases make the internal substrate types
// part of the public API without duplicating them.
type (
	// Image is a grayscale camera frame with pixels in [0,1].
	Image = vision.Image
	// IMUSample is one inertial sensor reading.
	IMUSample = imu.Sample
	// MotionRegime is a device motion regime.
	MotionRegime = imu.Regime
	// Frame is a workload video frame with ground truth.
	Frame = video.Frame
	// WorkloadSpec is a serializable workload description.
	WorkloadSpec = trace.Spec
	// SegmentSpec is one motion segment of a workload.
	SegmentSpec = trace.SegmentSpec
	// Workload is a fully generated device input.
	Workload = trace.Workload
	// ModelProfile describes a classifier's cost and quality.
	ModelProfile = dnn.Profile
	// Classifier is the expensive recognition the cache fronts.
	Classifier = core.Classifier
	// Result is one frame's recognition outcome.
	Result = core.Result
	// Source identifies which pipeline stage served a frame.
	Source = metrics.Source
	// Stats aggregates a session's hits, latency, energy, accuracy and
	// the events its frames raised. A controller's own counts live in
	// its snapshot instead: PeerClient.Health, AdmissionSnapshot,
	// QuarantineStats.
	Stats = metrics.SessionStats
	// LatencySummary summarizes recorded latencies.
	LatencySummary = metrics.LatencySummary
	// Clock abstracts time; use NewVirtualClock for experiments.
	Clock = simclock.Clock
	// VirtualClock is a deterministic manually-advanced clock.
	VirtualClock = simclock.Virtual
	// SimNetwork is a simulated device-to-device wireless network.
	SimNetwork = simnet.Network
	// PeerClient queries and gossips to nearby devices.
	PeerClient = p2p.Client
	// PeerServer serves the peer protocol over TCP.
	PeerServer = p2p.TCPServer
	// DegradationLevel names how far down the degradation ladder a
	// frame's answer came from (see Result.Degradation).
	DegradationLevel = core.DegradationLevel
	// AdmissionSnapshot is a point-in-time view of the overload
	// limiter: current limit, in-flight count, shed/late counters, and
	// the brownout level.
	AdmissionSnapshot = admission.Snapshot
	// AdmissionLevel is the brownout degradation level the limiter is
	// operating at (full, no-peer, first-candidate).
	AdmissionLevel = admission.Level
	// QualitySnapshot is a point-in-time view of the quality layer:
	// live hit-accuracy estimate, sample count, gate scale, and any
	// pending reuse-refusal frames.
	QualitySnapshot = core.QualitySnapshot
	// QuarantineStats summarizes the store's quarantine lifecycle:
	// currently quarantined entries plus quarantine, reinstatement, and
	// parole-eviction counters.
	QuarantineStats = cachestore.QuarantineStats
)

// Typed input and availability errors surfaced by Process.
var (
	// ErrBadFrame reports a structurally unusable camera frame (nil,
	// empty, or a pixel buffer that does not match its dimensions). The
	// frame is refused outright.
	ErrBadFrame = core.ErrBadFrame
	// ErrBadIMUWindow reports non-finite inertial data. The window is
	// refused outright; recoverable IMU faults are instead routed past
	// the reuse gates and counted in Stats().SensorFaults().
	ErrBadIMUWindow = core.ErrBadIMUWindow
	// ErrClassifierDown reports that the watchdog's breaker is open and
	// no fallback answer was available.
	ErrClassifierDown = core.ErrClassifierDown
	// ErrDeadlineExceeded reports that a frame blew its RequestDeadline
	// and no degraded answer (cached or last-result) was available.
	ErrDeadlineExceeded = core.ErrDeadlineExceeded
	// ErrOverloadShed reports that admission control refused the DNN
	// fallback and no degraded answer was available.
	ErrOverloadShed = core.ErrOverloadShed
	// ErrBatcherClosed reports an inference submitted to a pool whose
	// micro-batcher has been Closed; the degradation ladder normally
	// absorbs it before it reaches the caller.
	ErrBatcherClosed = dnn.ErrBatcherClosed
)

// Re-exported source, degradation, admission, and regime constants.
const (
	SourceIMU      = metrics.SourceIMU
	SourceVideo    = metrics.SourceVideo
	SourceLocal    = metrics.SourceLocal
	SourcePeer     = metrics.SourcePeer
	SourceDNN      = metrics.SourceDNN
	SourceFallback = metrics.SourceFallback
	SourceShed     = metrics.SourceShed

	DegradeNone       = core.DegradeNone
	DegradeCacheOnly  = core.DegradeCacheOnly
	DegradeLastResult = core.DegradeLastResult
	DegradeOverload   = core.DegradeOverload
	DegradeDeadline   = core.DegradeDeadline

	AdmissionFull           = admission.LevelFull
	AdmissionNoPeer         = admission.LevelNoPeer
	AdmissionFirstCandidate = admission.LevelFirstCandidate

	RegimeStationary = imu.Stationary
	RegimeHandheld   = imu.Handheld
	RegimeWalking    = imu.Walking
	RegimePanning    = imu.Panning
)

// Re-exported model zoo profiles.
var (
	MobileNetV2 = dnn.MobileNetV2
	SqueezeNet  = dnn.SqueezeNet
	InceptionV3 = dnn.InceptionV3
	ResNet50    = dnn.ResNet50
)

// Options configures a Cache. The zero value selects the full
// approximate pipeline with production defaults; every Cache keeps a
// cost-aware store over a 12-bit × 4-table LSH index.
type Options struct {
	// Capacity is the maximum number of cached entries (default 256).
	Capacity int
	// Clock supplies time; defaults to the wall clock. Experiments
	// pass NewVirtualClock so simulated latency replays instantly.
	Clock Clock
	// MaxReuseStreak bounds how many consecutive frames may be served
	// by reuse before a forced revalidation inference. 0 keeps the
	// default (20); negative disables the bound. It is the one knob
	// that trades reuse error for hit rate: a wrong label inherited by
	// a stationary stretch lives at most this many frames.
	MaxReuseStreak int
	// PeerBudget caps the time a frame may spend waiting on peers;
	// late answers are discarded and charged to the peer as timeouts.
	// Zero derives the budget as a quarter of the classifier's mean
	// inference latency; negative disables the cap.
	PeerBudget time.Duration
	// Shards is ignored: a cache, and a whole pool, is one store.
	//
	// Deprecated: kept only so existing callers compile; it goes with
	// the benchmark harness's last use (ROADMAP 1(A+B)).
	Shards int
	// BatchSize enables micro-batched DNN inference in NewPool: up to
	// BatchSize concurrent cache-miss classifications coalesce into one
	// batched invocation, amortizing the model's fixed per-invocation
	// cost. 0 or 1 runs unbatched. Requires a classifier implementing
	// BatchClassifier (the simulated classifier does). Ignored by New —
	// a single session has no concurrent misses to coalesce. A pending
	// batch waits at most 5 ms for more frames, and at most 8×BatchSize
	// inferences are in flight; excess submissions are refused with a
	// typed overload error the degradation ladder absorbs.
	BatchSize int
	// RequestDeadline is the per-request wall-clock budget. A frame
	// that blows it is answered from the degradation ladder (typed
	// SourceShed / DegradeDeadline) instead of occupying the
	// classifier, and the micro-batcher drops it if it expires while
	// queued. Zero (the default) disables deadlines. Deadlines are
	// wall-clock even under a virtual Clock: queueing delay and
	// accelerator occupancy are wall-clock phenomena.
	RequestDeadline time.Duration
	// Admission enables the AIMD overload limiter gating the DNN
	// fallback: the concurrency limit starts at 8, grows by one per
	// window of in-deadline completions up to 64, and halves on a
	// deadline miss or queue overflow down to 1. Shed frames are
	// answered from the degradation ladder, typed SourceShed /
	// DegradeOverload. Under sustained pressure the limiter also browns
	// out the expensive reuse machinery (peer queries first, then the
	// kNN vote).
	Admission bool
	// Quality enables the self-healing quality layer: every 16th reuse
	// hit is shadow-audited against the classifier, an entry whose
	// audits leave it with 2 more refutes than confirms is quarantined
	// (and evicted after 2 failed paroles), and the reuse gates
	// recalibrate to hold 90% live accuracy under drift. An audit runs
	// inside the Process call whose hit it samples, so statistics are
	// final as soon as Process returns.
	Quality bool
}

// Cache is the user-facing approximate recognition cache.
type Cache struct {
	engine *core.Engine
	store  cachestore.Interface
	clock  Clock
}

// New builds a Cache fronting classifier.
func New(classifier Classifier, opts Options) (*Cache, error) {
	cfg, deps, err := prepare(classifier, opts)
	if err != nil {
		return nil, err
	}
	engine, err := core.New(cfg, deps)
	if err != nil {
		return nil, fmt.Errorf("approxcache: %w", err)
	}
	return &Cache{engine: engine, store: deps.Store, clock: deps.Clock}, nil
}

// prepare is what New and NewPool share: it translates Options into the
// pipeline configuration, refusing a negative value in a field that
// documents no meaning for one, and builds the engine's dependencies —
// the clock (the wall clock by default) and one cost-aware store over a
// 12-bit × 4-table single-probe LSH index.
func prepare(classifier Classifier, opts Options) (core.Config, core.Deps, error) {
	switch {
	case classifier == nil:
		return core.Config{}, core.Deps{}, fmt.Errorf("approxcache: nil classifier")
	case opts.RequestDeadline < 0:
		return core.Config{}, core.Deps{}, fmt.Errorf("approxcache: negative RequestDeadline %v", opts.RequestDeadline)
	case opts.BatchSize < 0:
		return core.Config{}, core.Deps{}, fmt.Errorf("approxcache: negative BatchSize %d", opts.BatchSize)
	}
	cfg := core.DefaultConfig()
	if opts.MaxReuseStreak > 0 {
		cfg.MaxReuseStreak = opts.MaxReuseStreak
	} else if opts.MaxReuseStreak < 0 {
		cfg.MaxReuseStreak = 0
	}
	cfg.PeerBudget = opts.PeerBudget
	cfg.RequestDeadline = opts.RequestDeadline
	cfg.Admission = opts.Admission
	cfg.Quality.Enabled = opts.Quality

	clock := opts.Clock
	if clock == nil {
		clock = simclock.Real{}
	}
	capacity := opts.Capacity
	if capacity == 0 {
		capacity = 256
	}
	idx, err := lsh.NewHyperplane(cfg.Extractor.Dim(), 12, 4, 1)
	if err != nil {
		return core.Config{}, core.Deps{}, fmt.Errorf("approxcache: lsh index: %w", err)
	}
	scfg := cachestore.Config{Capacity: capacity, Policy: cachestore.CostAware}
	if opts.Quality {
		scfg.QuarantineThreshold = 2
	}
	store, err := cachestore.New(scfg, idx, clock)
	if err != nil {
		return core.Config{}, core.Deps{}, fmt.Errorf("approxcache: store: %w", err)
	}
	return cfg, core.Deps{Clock: clock, Classifier: classifier, Store: store}, nil
}

// Process recognizes one frame, charging all costs to the cache's
// clock. imuWindow carries the inertial samples received since the
// previous frame (pass nil when unavailable; the inertial gate then
// stays conservative).
func (c *Cache) Process(im *Image, imuWindow []IMUSample) (Result, error) {
	return c.engine.Process(im, imuWindow)
}

// ProcessWithTruth is Process plus ground-truth accuracy accounting,
// for experiments where the true label is known.
func (c *Cache) ProcessWithTruth(im *Image, imuWindow []IMUSample, truth string) (Result, error) {
	return c.engine.ProcessWithTruth(im, imuWindow, truth)
}

// Stats returns the session statistics (see the Stats type for what
// they leave to the controllers' snapshots).
func (c *Cache) Stats() *Stats { return c.engine.Stats() }

// AdmissionSnapshot returns the overload limiter's state; ok is false
// when Options.Admission is disabled.
func (c *Cache) AdmissionSnapshot() (AdmissionSnapshot, bool) {
	return c.engine.AdmissionSnapshot()
}

// QualitySnapshot returns the quality layer's live state; ok is false
// when Options.Quality is disabled.
func (c *Cache) QualitySnapshot() (QualitySnapshot, bool) {
	return c.engine.QualitySnapshot()
}

// QuarantineStats returns the store's quarantine lifecycle counters.
func (c *Cache) QuarantineStats() QuarantineStats { return c.store.QuarantineStats() }

// Len returns the number of live cache entries.
func (c *Cache) Len() int { return c.store.Len() }

// StoreStats summarizes cache occupancy and churn.
type StoreStats = cachestore.StoreStats

// StoreStats returns occupancy/churn details of the cache store.
func (c *Cache) StoreStats() StoreStats { return c.store.Stats() }

// NewVirtualClock returns a deterministic clock starting at the Unix
// epoch, for experiments.
func NewVirtualClock() *VirtualClock {
	return simclock.NewVirtual(time.Unix(0, 0))
}

// NewSimulatedClassifier builds the simulated DNN over a workload's
// class set. profile selects the model's cost/quality (e.g.
// MobileNetV2); seed drives label noise and latency jitter.
func NewSimulatedClassifier(profile ModelProfile, w *Workload, seed int64) (Classifier, error) {
	if w == nil {
		return nil, fmt.Errorf("approxcache: nil workload")
	}
	clf, err := dnn.NewClassifier(profile, w.Classes, seed)
	if err != nil {
		// A nil *dnn.Classifier would make a non-nil Classifier.
		return nil, err
	}
	return clf, nil
}

// LabelOf returns the canonical label for workload class index c.
func LabelOf(c int) string { return dnn.LabelOf(c) }

// GenerateWorkload renders the workload described by spec.
func GenerateWorkload(spec WorkloadSpec) (*Workload, error) { return trace.Generate(spec) }

// StationaryHeavyWorkload returns the poster's best-case workload spec.
func StationaryHeavyWorkload(frames int, seed int64) WorkloadSpec {
	return trace.StationaryHeavy(frames, seed)
}
