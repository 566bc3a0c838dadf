package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"approxcache/internal/admission"
	"approxcache/internal/cachestore"
	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/metrics"
	"approxcache/internal/vision"
)

// QualityConfig switches on the self-healing cache-quality layer: a
// shadow auditor that re-runs a sampled fraction of cache hits through
// the DNN off the latency path, per-entry confirm/refute bookkeeping
// feeding the store's quarantine machinery, and a drift-adaptive
// controller that tightens or loosens every reuse gate to hold a live
// hit-accuracy target. Everything but the sampling period is the fixed
// policy below.
type QualityConfig struct {
	// Enabled turns the quality layer on. The zero value is off: no
	// audits, no recalibration, zero overhead on the serving path.
	Enabled bool
	// AuditSampleEvery audits every Nth reuse-served frame (0 means
	// 16). Audits are skipped while the node is browning out or the
	// frame's request deadline is nearly spent — quality sampling
	// must never compete with overload survival.
	AuditSampleEvery int
	// Synchronous runs audits inline on the serving goroutine instead
	// of asynchronously. Audit latency is still never charged to the
	// frame; experiments on a virtual clock use this for determinism.
	Synchronous bool
}

// The quality controller's one policy.
const (
	// defaultAuditSampleEvery is the sampling period when
	// AuditSampleEvery is zero.
	defaultAuditSampleEvery = 16
	// targetAccuracy is the live hit-accuracy SLO the recalibration
	// controller defends.
	targetAccuracy = 0.90
	// hysteresis is the dead band around the target: the controller
	// only moves when the estimate leaves [target-h, target+h], so it
	// cannot oscillate on noise.
	hysteresis = 0.03
	// ewmaAlpha weights each new audit in the live-accuracy estimate.
	ewmaAlpha = 0.2
	// minSamples is how many sampled audits the controller needs before
	// it trusts the estimate enough to act.
	minSamples = 8
	// tightenStep and loosenStep are the multiplicative moves applied to
	// the gate-strictness scale. The scale multiplies the kNN reuse
	// radius and the IMU/video gate thresholds, so tightening shrinks
	// every gate at once.
	tightenStep = 0.7
	loosenStep  = 1.15
	// minScale floors the strictness scale. A controller already at the
	// floor that still misses the target stops trusting reuse entirely
	// and refuses it for refusalFrames frames (every frame revalidates
	// through the DNN, or through the degradation ladder when the DNN
	// is unavailable).
	minScale = 0.35
	// cooldownAudits is how many audits must pass between consecutive
	// scale moves, giving each move time to show up in the estimate
	// before the next.
	cooldownAudits = 4
	// refusalFrames is the length of a reuse-refusal burst.
	refusalFrames = 12
	// alarmAudits is the burst length entered after a refuted audit:
	// that many subsequent reuse serves are ALL audited instead of
	// sampled. One refute usually means an era of entries just went
	// stale together (model update, scene meaning changed), so the
	// controller sweeps the neighborhood densely while suspicion is hot
	// instead of waiting out the sampling period per poisoned scene.
	alarmAudits = 24
	// maxPending bounds in-flight asynchronous audits; sampling skips
	// while the bound is reached.
	maxPending = 4
)

// Validate reports whether the configuration is usable.
func (c QualityConfig) Validate() error {
	if c.Enabled && c.AuditSampleEvery < 0 {
		return fmt.Errorf("core: AuditSampleEvery must be non-negative, got %d", c.AuditSampleEvery)
	}
	return nil
}

// QualitySnapshot is a point-in-time view of the quality layer.
type QualitySnapshot struct {
	// LiveAccuracy is the EWMA hit-accuracy estimate from shadow
	// audits (1.0 before the first audit lands).
	LiveAccuracy float64
	// Samples is how many audits have fed the estimate.
	Samples int
	// Scale is the current gate-strictness scale in (0, 1].
	Scale float64
	// RefusalFrames is how many upcoming frames will refuse reuse
	// outright (0 when reuse is being served normally).
	RefusalFrames int
}

// qualityController is the pool-shared closed loop: it samples reuse
// serves into shadow audits, maintains the live-accuracy EWMA, drives
// per-entry confirm/refute/quarantine/parole, and recalibrates the
// shared gate-strictness scale. All engines of a pool share one
// controller, for the same reason they share a watchdog: they serve
// one cache, so its quality is one signal.
type qualityController struct {
	cfg   QualityConfig
	clf   Classifier
	store cachestore.Interface
	stats *metrics.SessionStats
	ctrl  *admission.Controller

	// scaleBits holds the gate-strictness scale as float bits, read
	// atomically on the hot path (every gate-3 lookup multiplies the
	// reuse radius by it).
	scaleBits atomic.Uint64

	mu         sync.Mutex
	sampleTick int
	ewma       float64
	samples    int
	sinceMove  int
	refusal    int
	// alarm counts down the post-refute dense-audit burst.
	alarm   int
	pending int
	wg      sync.WaitGroup
}

func newQualityController(cfg QualityConfig, clf Classifier, store cachestore.Interface, stats *metrics.SessionStats, ctrl *admission.Controller) *qualityController {
	if cfg.AuditSampleEvery == 0 {
		cfg.AuditSampleEvery = defaultAuditSampleEvery
	}
	qc := &qualityController{
		cfg:   cfg,
		clf:   clf,
		store: store,
		stats: stats,
		ctrl:  ctrl,
		ewma:  1, // innocent until audited
	}
	qc.setScale(1)
	return qc
}

func (qc *qualityController) scale() float64 {
	return math.Float64frombits(qc.scaleBits.Load())
}

func (qc *qualityController) setScale(s float64) {
	qc.scaleBits.Store(math.Float64bits(s))
}

// snapshot returns the controller's current state.
func (qc *qualityController) snapshot() QualitySnapshot {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	return QualitySnapshot{
		LiveAccuracy:  qc.ewma,
		Samples:       qc.samples,
		Scale:         qc.scale(),
		RefusalFrames: qc.refusal,
	}
}

// consumeRefusal reports whether the current frame must refuse reuse
// (forced revalidation), consuming one refusal frame.
func (qc *qualityController) consumeRefusal() bool {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	if qc.refusal <= 0 {
		return false
	}
	qc.refusal--
	qc.stats.Add(metrics.EventReuseRefusal, 1)
	return true
}

// drain blocks until all in-flight asynchronous audits complete.
func (qc *qualityController) drain() { qc.wg.Wait() }

// maybeAudit samples a reuse-served frame into a shadow audit. ids are
// the cache entries that backed the serve (empty for IMU/video hits,
// which have no entry to praise or blame). The audit is admission-aware
// (skipped while the node is browning out), deadline-budgeted (skipped
// when the frame's remaining deadline is thinner than one inference —
// the accelerator has no slack to spend on quality sampling), and
// bounded in flight. guarded is false for a frame no stage has read yet
// (an inertial-gate serve): the audit that falls due on it guards it.
func (qc *qualityController) maybeAudit(e *Engine, im *vision.Image, guarded bool, served string, ids []lsh.ID, deadline time.Time) {
	if qc == nil {
		return // the quality layer is off
	}
	if qc.ctrl != nil && qc.ctrl.Level() > admission.LevelFull {
		return
	}
	if !deadline.IsZero() && time.Until(deadline) < qc.clf.Profile().MeanLatency {
		return
	}
	qc.mu.Lock()
	qc.sampleTick++
	// Sampled audits are the unbiased accuracy estimate; alarm audits
	// are targeted sweeps of a suspected-stale neighborhood. Only the
	// former may move the EWMA — alarm audits deliberately oversample
	// bad frames, and folding that bias into the estimate would spiral
	// the controller to the floor every time it investigates.
	sampled := qc.sampleTick%qc.cfg.AuditSampleEvery == 0
	due := sampled
	if qc.alarm > 0 {
		due = true
		qc.alarm--
	}
	if due && !qc.cfg.Synchronous {
		if qc.pending >= maxPending {
			due = false
		} else {
			qc.pending++
		}
	}
	qc.mu.Unlock()
	if !due {
		return
	}
	// Copy the supporting IDs: the caller's slice is backed by frame
	// scratch that the next frame will overwrite.
	var own [maxAuditIDs]lsh.ID
	n := copy(own[:], ids)
	if qc.cfg.Synchronous {
		qc.runAudit(e, im, guarded, served, own[:n], sampled)
		return
	}
	qc.wg.Add(1)
	go func() {
		defer qc.wg.Done()
		qc.runAudit(e, im, guarded, served, own[:n], sampled)
		qc.mu.Lock()
		qc.pending--
		qc.mu.Unlock()
	}()
}

// maxAuditIDs bounds how many supporting entries one audit can judge —
// the vote's k is far below this.
const maxAuditIDs = 8

// runAudit re-runs the DNN on a frame a cache hit answered and feeds
// the comparison back into every layer: the live-accuracy estimate, the
// supporting entries' confirm/refute counters (quarantining repeat
// offenders), parole of quarantined neighbours, and — on a refute —
// repair plus a forced revalidation. The classifier is called directly,
// not through the watchdog: a discretionary audit's failures must not
// trip the breaker that guards serving. An unguarded frame (see
// maybeAudit) is guarded first; a broken one is counted and skipped.
func (qc *qualityController) runAudit(e *Engine, im *vision.Image, guarded bool, served string, ids []lsh.ID, sampled bool) {
	if !guarded {
		var th vision.Thumb
		if _, err := e.guardFrame(im, &th); err != nil {
			return
		}
	}
	inf, err := qc.clf.Infer(im)
	if err != nil {
		return // no verdict; the estimate only moves on evidence
	}
	agree := inf.Label == served
	qc.stats.Add(metrics.EventAudit, 1)
	if !agree {
		qc.stats.Add(metrics.EventAuditRefuted, 1)
	}
	// Audits cost energy (the DNN really ran) but never frame latency:
	// the frame was already answered.
	qc.stats.ObserveEnergy(inf.EnergyMJ)
	for _, id := range ids {
		if agree {
			qc.store.Confirm(id)
		} else if qc.store.Refute(id) {
			qc.stats.Add(metrics.EventQuarantine, 1)
		}
	}
	// Fresh DNN evidence re-verifies quarantined entries caching the
	// same scene, whichever way the audit went; a refute additionally
	// repairs the live neighborhood and re-anchors the cheap gates.
	needVec := !agree
	if !needVec {
		needVec = qc.store.QuarantineStats().Active > 0
	}
	if needVec {
		if vec, verr := feature.ExtractInto(e.cfg.Extractor, im, nil); verr == nil {
			if !agree {
				e.healAfterRefute(im, vec, inf.Label, inf.Confidence, inf.Latency)
			}
			qc.paroleNear(vec, inf.Label, e.cfg.Vote.MaxDistance)
		}
	}
	qc.observeVerdict(agree, sampled)
}

// paroleNear re-verifies quarantined entries within radius of vec
// against the fresh DNN label: agreement reinstates them into the
// candidate index, disagreement counts a parole failure (eviction at
// the limit).
func (qc *qualityController) paroleNear(vec feature.Vector, freshLabel string, radius float64) {
	for _, en := range qc.store.QuarantinedEntries() {
		d, err := feature.Euclidean(vec, en.Vec)
		if err != nil || d > radius {
			continue
		}
		switch qc.store.Parole(en.ID, en.Label == freshLabel) {
		case cachestore.ParoleReinstated:
			qc.stats.Add(metrics.EventParole, 1)
		case cachestore.ParoleEvicted:
			qc.stats.Add(metrics.EventParoleEvict, 1)
		}
	}
}

// observeVerdict reacts to one audit outcome: any refute arms the
// alarm sweep; sampled (unbiased) outcomes additionally feed the EWMA
// and the recalibration policy.
func (qc *qualityController) observeVerdict(agree, sampled bool) {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	if !agree {
		// A refute rarely comes alone — a whole era of entries likely
		// went stale with it. Audit densely while suspicion is hot.
		qc.alarm = alarmAudits
	}
	if !sampled {
		return
	}
	v := 0.0
	if agree {
		v = 1
	}
	qc.ewma = (1-ewmaAlpha)*qc.ewma + ewmaAlpha*v
	qc.samples++
	qc.recalibrateLocked()
}

// recalibrateLocked moves the gate-strictness scale with hysteresis:
// an estimate below the SLO dead band tightens every reuse gate
// (multiplicatively), one above it relaxes them back toward the
// configured thresholds. At the floor with the SLO still missed, the
// controller refuses reuse for a burst of frames — every frame
// revalidates through the DNN (or the degradation ladder when the DNN
// is down) — and restarts the estimate, because the flush it just
// ordered invalidates everything the old estimate measured.
func (qc *qualityController) recalibrateLocked() {
	if qc.samples < minSamples {
		return
	}
	qc.sinceMove++
	if qc.sinceMove < cooldownAudits {
		return
	}
	s := qc.scale()
	switch {
	case qc.ewma < targetAccuracy-hysteresis:
		if s > minScale {
			qc.setScale(math.Max(minScale, s*tightenStep))
		} else {
			qc.refusal = refusalFrames
			qc.samples = 0
			qc.ewma = targetAccuracy
		}
		qc.stats.Add(metrics.EventRecalTighten, 1)
		qc.sinceMove = 0
	case qc.ewma > targetAccuracy+hysteresis && s < 1:
		qc.setScale(math.Min(1, s*loosenStep))
		qc.stats.Add(metrics.EventRecalLoosen, 1)
		qc.sinceMove = 0
	}
}

// healAfterRefute is the engine's half of a refuted audit: purge live
// entries the fresh label contradicts, cache and re-anchor on it, and
// force the next frame to revalidate.
func (e *Engine) healAfterRefute(im *vision.Image, vec feature.Vector, label string, confidence float64, savedCost time.Duration) {
	if e.runs(StageRepair) {
		n, _ := e.repairNear(vec, label, e.cfg.Vote.MaxDistance, nil, false)
		e.stats.Add(metrics.EventRepair, n)
	}
	if _, err := e.deps.Store.Insert(vec, label, confidence, "audit", savedCost); err == nil {
		// Off the frame path: no guard pass has summarised im here.
		var thumb vision.Thumb
		thumb.Fill(im)
		e.refreshScene(im, &thumb, label, confidence)
	}
	e.mu.Lock()
	if e.cfg.MaxReuseStreak > 0 && e.streak < e.cfg.MaxReuseStreak {
		e.streak = e.cfg.MaxReuseStreak
	}
	e.mu.Unlock()
}

// DrainAudits blocks until all in-flight asynchronous shadow audits
// complete. Tests and orderly shutdowns call it; pools share one
// controller, so draining any session drains them all.
func (e *Engine) DrainAudits() {
	if e.quality != nil {
		e.quality.drain()
	}
}

// QualitySnapshot returns the quality layer's state; ok is false when
// the layer is disabled.
func (e *Engine) QualitySnapshot() (QualitySnapshot, bool) {
	if e.quality == nil {
		return QualitySnapshot{}, false
	}
	return e.quality.snapshot(), true
}
