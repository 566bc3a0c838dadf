package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"approxcache/internal/admission"
	"approxcache/internal/cachestore"
	"approxcache/internal/dnn"
	"approxcache/internal/feature"
	"approxcache/internal/imu"
	"approxcache/internal/lsh"
	"approxcache/internal/metrics"
	"approxcache/internal/p2p"
	"approxcache/internal/vision"
)

// Stage names one step of the frame pipeline. Its value is its place in
// pipeline order and its slot in FrameRecord.Stages.
type Stage uint8

// Pipeline stages; an engine runs a subset (stageList), in this order.
const (
	StageNone      Stage = iota
	StageSensors         // input guard: frame shape and IMU window
	StageIMU             // inertial gate
	StageFrame           // frame guard: the frame's one pass over its pixels
	StageSkip            // ModeNaiveSkip's blind reuse
	StageExact           // ModeExactCache's pixel-hash memo
	StageVideo           // keyframe-library gate
	StageExtract         // descriptor extraction
	StageLookup          // local cache lookup and kNN vote
	StagePeer            // peer query under the frame's budget
	StageAdmission       // request deadline and admission limiter
	StageDNN             // inference under the watchdog, degradation ladder
	StageRepair          // purge of cached entries the inference contradicts
	StageInsert          // the inference joins the cache and the scene anchors
	StageGossip          // the inference is shared with peers
	numStages
)

var stageNames = [numStages]string{"none", "sensors", "imu", "frame", "skip", "exact", "video",
	"extract", "lookup", "peer", "admission", "dnn", "repair", "insert", "gossip"}

// String returns the stage name.
func (s Stage) String() string {
	if s < numStages {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// Outcome is what one stage did with a frame; zero means it did not run.
type Outcome uint8

// Stage outcomes.
const (
	OutcomeSkipped Outcome = iota + 1 // its pass test kept it from running
	OutcomePassed                     // it ran and handed the frame on
	OutcomeServed                     // it answered the frame
	OutcomeRefused                    // it distrusted its input or shed the frame
)

// StageRecord is one stage's outcome and the simulated cost it charged.
type StageRecord struct {
	Outcome  Outcome
	Latency  time.Duration
	EnergyMJ float64
}

// FrameRecord is the account of one frame: the stage that served it,
// what each stage that ran charged, and the inputs each decided on. It
// holds scalars only, so a caller may keep and reuse one freely.
type FrameRecord struct {
	Stages [numStages]StageRecord // indexed by Stage
	Served Stage                  // StageNone when no stage answered
	// Revalidate: a reuse streak or the quality layer forced the frame
	// past every reuse stage. Brownout: the admission level it began at.
	Revalidate bool
	Brownout   admission.Level
	// StageIMU: the detector's assessment (imu.State).
	Stationary            bool
	Rotation, MaxRotation float64
	// StageVideo: the best keyframe's difference against the threshold
	// in force, and how many keyframes' pixels were read (video.MatchStats).
	KeyframeDiff, DiffThreshold float64
	ExactDiffs                  int
	// StageLookup: k, radius, nearest distance (+Inf for none), vote.
	K                    int
	Radius, Nearest      float64
	Accepted             bool
	VoteConfidence       float64
	PeerBudget, PeerCost time.Duration // StagePeer
	PeerQueried          int
	PeerFound            bool
	Admission            DegradationLevel // StageAdmission: DegradeNone when admitted
	Penalty              time.Duration    // StageDNN: the watchdog's timeouts and backoff
	Repairs              int              // StageRepair
}

// Totals is the frame's simulated latency and energy, summed in stage
// order: no stage charges twice, so these are a running total's terms.
func (r *FrameRecord) Totals() (latency time.Duration, energyMJ float64) {
	for _, s := range r.Stages {
		latency += s.Latency
		energyMJ += s.EnergyMJ
	}
	return latency, energyMJ
}

// stage is one entry of an engine's pipeline. done ends the frame's walk
// (StageDNN, having served, leaves it unset for repair, insert, gossip).
type stage struct {
	id  Stage
	try func(*Engine, *frame) (done bool, err error)
}

// stageList is the pipeline for cfg: the Disable* switches decide
// membership here, once, and what a frame decides for itself is a
// stage's own pass test. admit adds StageAdmission (a request deadline
// or an admission controller needs it).
func stageList(cfg Config, admit bool) []stage {
	var list []stage
	add := func(on bool, id Stage, try func(*Engine, *frame) (bool, error)) {
		if on {
			list = append(list, stage{id, try})
		}
	}
	guards := !cfg.DisableSensorGuards
	if cfg.Mode != ModeApprox {
		add(guards, StageFrame, (*Engine).tryFrame)
		add(cfg.Mode == ModeNaiveSkip, StageSkip, (*Engine).trySkip)
		add(cfg.Mode == ModeExactCache, StageExact, (*Engine).tryExact)
		add(true, StageDNN, (*Engine).tryBaselineDNN)
		return list
	}
	add(guards, StageSensors, (*Engine).trySensors)
	// Without the inertial gate its bookkeeping still runs, unrecorded.
	add(cfg.DisableIMUGate, StageNone, func(e *Engine, f *frame) (bool, error) { return e.tryIMU(f, false) })
	add(!cfg.DisableIMUGate, StageIMU, func(e *Engine, f *frame) (bool, error) { return e.tryIMU(f, true) })
	add(guards, StageFrame, (*Engine).tryFrame)
	add(!cfg.DisableVideoGate, StageVideo, (*Engine).tryVideo)
	add(true, StageExtract, (*Engine).tryExtract)
	add(true, StageLookup, (*Engine).tryLookup)
	add(true, StagePeer, (*Engine).tryPeer)
	add(admit, StageAdmission, (*Engine).tryAdmission)
	add(true, StageDNN, (*Engine).tryDNN)
	add(!cfg.DisableRepair, StageRepair, (*Engine).tryRepair)
	add(true, StageInsert, (*Engine).tryInsert)
	add(!cfg.DisableGossip, StageGossip, (*Engine).tryGossip)
	return list
}

// runs reports whether s is in the engine's pipeline.
func (e *Engine) runs(s Stage) bool {
	for _, st := range e.stages {
		if st.id == s {
			return true
		}
	}
	return false
}

// frame is one frame's context, shared by its stages and pooled: a
// steady-state frame allocates nothing. Every consumer of the recycled
// descriptor and neighbour buffers (store, peer encodings) copies them.
type frame struct {
	frameState
	thumb vision.Thumb   // valid while thumbed
	vec   feature.Vector // the descriptor, in a recycled buffer
	ns    []lsh.Neighbor // recycled neighbour buffer: the last search's result
}

// frameState is the part of a frame that starts from zero.
type frameState struct {
	rec      FrameRecord
	im       *vision.Image
	win      []imu.Sample
	deadline time.Time // wall clock; zero without a request deadline

	imuOK, frameOK, revalidate bool
	brownout                   admission.Level
	scale                      float64 // the quality layer's gate strictness
	thumbed                    bool
	haveLooked                 bool // ns is the frame's lookup, and repairNear may reuse it
	peers                      *p2p.Client
	inf                        dnn.Inference
	cause                      error            // why StageDNN's ladder answers, not the DNN
	shed                       DegradationLevel // set when overload protection kept it off
	last                       Result           // ModeNaiveSkip's snapshot
	hasLast                    bool
	exactKey                   uint64
	res                        Result
}

// newFrame takes a frame from the pool, reset for im.
func (e *Engine) newFrame(im *vision.Image, win []imu.Sample) *frame {
	f, _ := e.frames.Get().(*frame)
	if f == nil {
		f = new(frame)
	}
	f.frameState = frameState{im: im, win: win, imuOK: true, frameOK: true, scale: 1}
	return f
}

// charge books simulated cost to stage s.
func (f *frame) charge(s Stage, latency time.Duration, energyMJ float64) {
	f.rec.Stages[s].Latency += latency
	f.rec.Stages[s].EnergyMJ += energyMJ
}

func (f *frame) mark(s Stage, o Outcome) (bool, error) {
	f.rec.Stages[s].Outcome = o
	return false, nil
}

// serve answers the frame from stage s.
func (f *frame) serve(s Stage, label string, confidence float64, src metrics.Source, d DegradationLevel) (bool, error) {
	f.rec.Stages[s].Outcome, f.rec.Served = OutcomeServed, s
	f.res.Label, f.res.Confidence, f.res.Source, f.res.Degradation = label, confidence, src, d
	return true, nil
}

// thumbnail returns the frame's thumbnail, taken here if no guard did.
func (f *frame) thumbnail() *vision.Thumb {
	if !f.thumbed {
		f.thumb.Fill(f.im)
		f.thumbed = true
	}
	return &f.thumb
}

// trySensors checks the frame's shape and its IMU window: broken input
// is refused, a lesser-faulted window kept from the gate it would fool.
func (e *Engine) trySensors(f *frame) (bool, error) {
	f.mark(StageSensors, OutcomeRefused)
	if !f.im.WellFormed() {
		e.stats.ObserveSensorFault("frame-" + vision.FrameEmpty.String())
		return false, fmt.Errorf("%w: %s", ErrBadFrame, vision.FrameEmpty)
	}
	if wf := imu.CheckWindow(f.win, e.cfg.IMUGuard); wf != imu.WindowOK {
		e.stats.ObserveSensorFault("imu-" + wf.String())
		if wf == imu.WindowNonFinite {
			return false, fmt.Errorf("%w: %s", ErrBadIMUWindow, wf)
		}
		f.imuOK = false
		return false, nil
	}
	return f.mark(StageSensors, OutcomePassed)
}

// tryIMU is the frame's bookkeeping — brownout level, quality refusal
// and scale, detector feed, forced revalidation — and, with gate, the
// inertial gate: a device unmoved since the last recognition repeats it.
func (e *Engine) tryIMU(f *frame, gate bool) (bool, error) {
	if e.ctrl != nil {
		f.brownout = e.ctrl.Level()
	}
	forced := false
	if e.quality != nil {
		forced = e.quality.consumeRefusal()
		f.scale = e.quality.scale()
	}
	e.mu.Lock()
	if e.quality != nil && f.scale != e.appliedScale {
		e.detector.SetStrictness(f.scale)
		e.keyframes.SetStrictness(f.scale)
		e.appliedScale = f.scale
	}
	if f.imuOK {
		e.detector.ObserveAll(f.win)
	}
	f.revalidate = forced || (e.cfg.MaxReuseStreak > 0 && e.streak >= e.cfg.MaxReuseStreak)
	f.rec.Revalidate, f.rec.Brownout = f.revalidate, f.brownout
	outcome, last := OutcomeSkipped, e.last
	if gate && f.imuOK && !f.revalidate && e.hasLast {
		st := e.detector.State()
		f.rec.Stationary, f.rec.Rotation, f.rec.MaxRotation = st.Stationary, st.RotationSinceMark, st.MaxRotation
		f.charge(StageIMU, e.cfg.Costs.IMUGateLatency, e.cfg.Costs.IMUGateEnergyMJ)
		outcome = OutcomePassed
		if st.AllowsReuse() {
			outcome = OutcomeServed
		}
	}
	e.mu.Unlock()
	if gate {
		f.mark(StageIMU, outcome)
	}
	if outcome != OutcomeServed {
		return false, nil
	}
	if e.quality != nil { // an audit would be the frame's first reader
		e.quality.maybeAudit(e, f.im, !e.runs(StageFrame), last.Label, nil, f.deadline)
	}
	return f.serve(StageIMU, last.Label, last.Confidence, metrics.SourceIMU, DegradeNone)
}

// tryFrame is the frame's one guarded pass over its pixels. The cache
// stages skip a low-entropy frame, which leaves no trace in the cache.
func (e *Engine) tryFrame(f *frame) (bool, error) {
	ok, err := e.guardFrame(f.im, &f.thumb)
	f.thumbed, f.frameOK = true, ok
	if !ok {
		f.mark(StageFrame, OutcomeRefused)
		return false, err
	}
	return f.mark(StageFrame, OutcomePassed)
}

// trySkip reuses the last result blindly but on every SkipEvery-th
// frame, as SourceVideo (a crude temporal-locality heuristic).
func (e *Engine) trySkip(f *frame) (bool, error) {
	e.mu.Lock()
	f.last, f.hasLast = e.last, e.hasLast
	skip := f.hasLast && (e.streak+1)%e.cfg.SkipEvery != 0
	e.mu.Unlock()
	if !skip {
		return f.mark(StageSkip, OutcomePassed)
	}
	f.charge(StageSkip, e.cfg.Costs.IMUGateLatency, e.cfg.Costs.IMUGateEnergyMJ)
	return f.serve(StageSkip, f.last.Label, f.last.Confidence, metrics.SourceVideo, DegradeNone)
}

// tryExact memoizes under a quantized-pixel hash (diff-class work).
func (e *Engine) tryExact(f *frame) (bool, error) {
	f.exactKey = exactHash(f.im)
	f.charge(StageExact, e.cfg.Costs.DiffLatency, e.cfg.Costs.DiffEnergyMJ)
	e.mu.Lock()
	entry, ok := e.exact[f.exactKey]
	e.mu.Unlock()
	if !ok {
		return f.mark(StageExact, OutcomePassed)
	}
	return f.serve(StageExact, entry.label, entry.confidence, metrics.SourceLocal, DegradeNone)
}

// tryVideo diffs the frame against the recent recognised keyframes,
// catching what the IMU missed — a pan back to a recent scene, too.
func (e *Engine) tryVideo(f *frame) (bool, error) {
	if !f.frameOK || f.revalidate {
		return f.mark(StageVideo, OutcomeSkipped)
	}
	th := f.thumbnail()
	e.mu.Lock()
	if e.keyframes.Len() == 0 {
		e.mu.Unlock()
		return f.mark(StageVideo, OutcomeSkipped)
	}
	kf, m := e.keyframes.MatchThumb(f.im, th)
	e.mu.Unlock()
	f.rec.KeyframeDiff, f.rec.DiffThreshold, f.rec.ExactDiffs = m.Diff, m.Threshold, m.Exact
	f.charge(StageVideo, e.cfg.Costs.DiffLatency, e.cfg.Costs.DiffEnergyMJ)
	if !m.Found {
		return f.mark(StageVideo, OutcomePassed)
	}
	e.quality.maybeAudit(e, f.im, true, kf.Label, nil, f.deadline)
	return f.serve(StageVideo, kf.Label, kf.Confidence, metrics.SourceVideo, DegradeNone)
}

// tryExtract computes the descriptor, its grid from the thumbnail.
func (e *Engine) tryExtract(f *frame) (bool, error) {
	if !f.frameOK {
		return f.mark(StageExtract, OutcomeSkipped)
	}
	f.peers = e.peers()
	vec, err := feature.ExtractThumbInto(e.cfg.Extractor, f.im, f.thumbnail(), f.vec)
	if err != nil {
		return false, fmt.Errorf("extract: %w", err)
	}
	f.vec = vec
	f.charge(StageExtract, e.cfg.Costs.FeatureLatency, e.cfg.Costs.FeatureEnergyMJ)
	return f.mark(StageExtract, OutcomePassed)
}

// tryLookup asks the local cache: the in-range neighbours vote, or under
// deep brownout the nearest answers alone — cheaper than shedding.
func (e *Engine) tryLookup(f *frame) (bool, error) {
	if !f.frameOK || f.revalidate {
		return f.mark(StageLookup, OutcomeSkipped)
	}
	vote := e.cfg.Vote // a copy: the quality scale shrinks the radius
	vote.MaxDistance *= f.scale
	first := f.brownout >= admission.LevelFirstCandidate
	k := vote.K
	if first {
		k = 1
	}
	ns, err := cachestore.NearestWithinInto(e.deps.Store, f.vec, k, vote.MaxDistance, f.ns[:0])
	if err != nil {
		return false, fmt.Errorf("nearest: %w", err)
	}
	f.ns = ns
	f.rec.K, f.rec.Radius, f.rec.Nearest = k, vote.MaxDistance, math.Inf(1)
	if len(ns) > 0 {
		f.rec.Nearest = ns[0].Distance
	}
	f.haveLooked = k == e.cfg.Vote.K && vote.MaxDistance >= e.cfg.Vote.MaxDistance/2
	var verdict lsh.Verdict
	if first {
		if len(ns) > 0 && ns[0].Distance <= vote.MaxDistance {
			if label, conf, ok := e.deps.Store.Answer(ns[0].ID); ok {
				verdict = lsh.Verdict{Accepted: true, Label: label, Confidence: conf}
			}
		}
	} else if verdict, err = lsh.Vote(ns, e.deps.Store.Label, vote); err != nil {
		return false, fmt.Errorf("vote: %w", err)
	}
	f.charge(StageLookup, e.cfg.Costs.LookupLatency, e.cfg.Costs.LookupEnergyMJ)
	f.rec.Accepted, f.rec.VoteConfidence = verdict.Accepted, verdict.Confidence
	if !verdict.Accepted {
		return f.mark(StageLookup, OutcomePassed)
	}
	if len(ns) > 0 {
		e.deps.Store.Touch(ns[0].ID)
	}
	e.refreshScene(f.im, f.thumbnail(), verdict.Label, verdict.Confidence)
	if e.quality != nil {
		var aud [maxAuditIDs]lsh.ID
		an := 0
		for _, n := range ns {
			if an == len(aud) || n.Distance > vote.MaxDistance {
				break
			}
			aud[an] = n.ID
			an++
		}
		e.quality.maybeAudit(e, f.im, true, verdict.Label, aud[:an], f.deadline)
	}
	return f.serve(StageLookup, verdict.Label, verdict.Confidence, metrics.SourceLocal, DegradeNone)
}

// radio prices peer traffic for the session's energy accounting.
var radio = p2p.DefaultRadioEnergyModel()

// tryPeer asks nearby devices within a per-frame budget. Brownout
// drops it first: it is the dearest reuse, on a node short of time.
func (e *Engine) tryPeer(f *frame) (bool, error) {
	if !f.frameOK || f.revalidate || f.peers == nil || f.brownout >= admission.LevelNoPeer {
		return f.mark(StagePeer, OutcomeSkipped)
	}
	budget := e.peerBudget()
	if !f.deadline.IsZero() {
		// A spent deadline skips (QueryFrame reads 0 as unbounded).
		remaining := time.Until(f.deadline)
		if remaining <= 0 {
			return f.mark(StagePeer, OutcomeSkipped)
		}
		if budget == 0 || remaining < budget {
			budget = remaining
		}
	}
	f.rec.PeerBudget = budget
	out, err := f.peers.QueryFrame(f.vec, budget)
	if err != nil {
		return false, fmt.Errorf("peer query: %w", err)
	}
	if out.Degraded {
		e.stats.Add(metrics.EventDegradedFrame, 1)
	}
	f.rec.PeerQueried, f.rec.PeerFound = out.Queried, out.Found
	if out.Queried > 0 {
		f.rec.PeerCost = out.Cost
		f.charge(StagePeer, out.Cost, radio.RTTCost(p2p.QueryWireSize(len(f.vec)), 32))
		e.stats.Add(metrics.EventPeerQuery, 1)
		if out.Found {
			e.stats.Add(metrics.EventPeerHit, 1)
		}
	}
	if !out.Found {
		return f.mark(StagePeer, OutcomePassed)
	}
	hit := out.Hit
	pid, err := e.deps.Store.Insert(f.vec, hit.Label, hit.Confidence, "peer", e.deps.Classifier.Profile().MeanLatency)
	if err != nil {
		return false, fmt.Errorf("adopt peer hit: %w", err)
	}
	e.refreshScene(f.im, f.thumbnail(), hit.Label, hit.Confidence)
	if e.quality != nil {
		aud := [1]lsh.ID{pid}
		e.quality.maybeAudit(e, f.im, true, hit.Label, aud[:], f.deadline)
	}
	f.res.PeerName = hit.Peer
	return f.serve(StagePeer, hit.Label, hit.Confidence, metrics.SourcePeer, DegradeNone)
}

// tryAdmission sends a frame past its deadline, or one the limiter
// refuses, down StageDNN's ladder without inferring.
func (e *Engine) tryAdmission(f *frame) (bool, error) {
	switch {
	case !f.deadline.IsZero() && !time.Now().Before(f.deadline):
		e.stats.Add(metrics.EventExpiredDrop, 1)
		f.shed, f.cause = DegradeDeadline, ErrDeadlineExceeded
	case e.ctrl != nil && !e.ctrl.TryAcquire():
		e.stats.Add(metrics.EventShed, 1)
		f.shed, f.cause = DegradeOverload, ErrOverloadShed
	default:
		return f.mark(StageAdmission, OutcomePassed)
	}
	f.rec.Admission = f.shed
	return f.mark(StageAdmission, OutcomeRefused)
}

// tryDNN infers under the watchdog, or takes the ladder for a failed or
// refused frame. A cache-worthy inference hands on to repair and insert.
func (e *Engine) tryDNN(f *frame) (bool, error) {
	if f.cause == nil {
		inf, penalty, err := e.wd.infer(f.im, f.deadline, e.jitterSeed)
		if e.ctrl != nil {
			// Queue refusals back the limit off as overflow; the rest
			// report whether the frame kept its budget (AIMD).
			if dnn.IsOverloadError(err) {
				e.ctrl.ReleaseOverflow()
			} else {
				e.ctrl.Release(f.deadline.IsZero() || time.Now().Before(f.deadline))
			}
		}
		f.rec.Penalty = penalty
		f.charge(StageDNN, penalty, 0)
		switch {
		case err == nil:
			f.inf = inf
			f.charge(StageDNN, inf.Latency, inf.EnergyMJ)
			f.serve(StageDNN, inf.Label, inf.Confidence, metrics.SourceDNN, DegradeNone)
			return !f.frameOK, nil
		case errors.Is(err, dnn.ErrExpiredInQueue):
			e.stats.Add(metrics.EventExpiredDrop, 1)
			f.shed = DegradeDeadline
		case errors.Is(err, dnn.ErrQueueFull):
			e.stats.Add(metrics.EventShed, 1)
			f.shed = DegradeOverload
		}
		f.cause = err
	}
	return e.ladder(f)
}

// fallbackConfidence discounts degraded answers: the pipeline cannot
// verify them, so it halves the confidence it reports.
const fallbackConfidence = 0.5

// fallbackRadiusFactor relaxes the cache acceptance radius for degraded
// serving: with the DNN down, a merely-nearby answer beats none.
const fallbackRadiusFactor = 2.0

// ladder answers a frame the DNN did not: the nearest cached entry in a
// relaxed radius, else the last result within LastResultTTL, else the
// cause. Answers carry halved confidence, and SourceFallback with the
// rung — or, when shed, SourceShed with the shed's marker.
func (e *Engine) ladder(f *frame) (bool, error) {
	src, cacheOnly, lastResult := metrics.SourceFallback, DegradeCacheOnly, DegradeLastResult
	if f.shed != DegradeNone {
		src, cacheOnly, lastResult = metrics.SourceShed, f.shed, f.shed
	}
	if f.frameOK {
		f.charge(StageDNN, e.cfg.Costs.LookupLatency, e.cfg.Costs.LookupEnergyMJ)
		radius := fallbackRadiusFactor * e.cfg.Vote.MaxDistance
		if ns, err := cachestore.NearestWithinInto(e.deps.Store, f.vec, 1, radius, f.ns[:0]); err == nil {
			f.ns = ns
			if len(ns) > 0 && ns[0].Distance <= radius {
				if label, conf, ok := e.deps.Store.Answer(ns[0].ID); ok {
					e.deps.Store.Touch(ns[0].ID)
					return f.serve(StageDNN, label, conf*fallbackConfidence, src, cacheOnly)
				}
			}
		}
	}
	e.mu.RLock()
	last, ok := e.last, e.hasLast && (e.cfg.LastResultTTL <= 0 || e.deps.Clock.Now().Sub(e.lastAt) <= e.cfg.LastResultTTL)
	e.mu.RUnlock()
	if ok {
		return f.serve(StageDNN, last.Label, last.Confidence*fallbackConfidence, src, lastResult)
	}
	f.mark(StageDNN, OutcomeRefused)
	return false, fmt.Errorf("recognition unavailable: %w", f.cause)
}

// tryBaselineDNN is the baselines' inference; only ModeNaiveSkip has a
// fallback, the last result.
func (e *Engine) tryBaselineDNN(f *frame) (bool, error) {
	inf, penalty, err := e.wd.infer(f.im, f.deadline, e.jitterSeed)
	if err != nil {
		if f.hasLast {
			f.charge(StageDNN, e.cfg.Costs.IMUGateLatency, e.cfg.Costs.IMUGateEnergyMJ)
			return f.serve(StageDNN, f.last.Label, f.last.Confidence*fallbackConfidence, metrics.SourceFallback, DegradeLastResult)
		}
		return false, fmt.Errorf("infer: %w", err)
	}
	if e.exact != nil {
		e.mu.Lock()
		e.exact[f.exactKey] = exactEntry{label: inf.Label, confidence: inf.Confidence}
		e.mu.Unlock()
	}
	f.rec.Penalty = penalty
	f.charge(StageDNN, penalty+inf.Latency, inf.EnergyMJ)
	return f.serve(StageDNN, inf.Label, inf.Confidence, metrics.SourceDNN, DegradeNone)
}

// tryRepair purges the entries near enough to have claimed this lookup
// that the inference contradicts.
func (e *Engine) tryRepair(f *frame) (bool, error) {
	f.rec.Repairs, f.ns = e.repairNear(f.vec, f.inf.Label, e.cfg.Vote.MaxDistance/2, f.ns, f.haveLooked)
	e.stats.Add(metrics.EventRepair, f.rec.Repairs)
	return f.mark(StageRepair, OutcomePassed)
}

// tryInsert caches the inference and re-anchors the cheap gates on it.
func (e *Engine) tryInsert(f *frame) (bool, error) {
	if _, err := e.deps.Store.Insert(f.vec, f.inf.Label, f.inf.Confidence, "dnn", f.inf.Latency); err != nil {
		return false, fmt.Errorf("cache insert: %w", err)
	}
	e.refreshScene(f.im, f.thumbnail(), f.inf.Label, f.inf.Confidence)
	return f.mark(StageInsert, OutcomePassed)
}

// tryGossip shares the inference: radio energy, no latency (async).
func (e *Engine) tryGossip(f *frame) (bool, error) {
	if f.peers == nil {
		return f.mark(StageGossip, OutcomeSkipped)
	}
	if _, err := f.peers.Gossip(f.vec, f.inf.Label, f.inf.Confidence, f.inf.Latency); err == nil {
		size := p2p.GossipWireSize(len(f.vec), len(f.inf.Label))
		f.charge(StageGossip, 0, radio.MessageCost(size)*float64(len(f.peers.Peers())))
	}
	return f.mark(StageGossip, OutcomePassed)
}

// repairNear removes the cached entries within radius of vec labelled
// other than freshLabel and counts them: StageRepair at half the vote
// radius, a refuted audit's heal at the full one. With looked, ns is the
// frame's own lookup (full vote K, radius at least this) and is reused;
// otherwise repairNear scans into ns's buffer, which it returns. Reuse
// sees the cache as of the lookup, not entries another session inserted
// since.
func (e *Engine) repairNear(vec feature.Vector, freshLabel string, radius float64, ns []lsh.Neighbor, looked bool) (int, []lsh.Neighbor) {
	if !looked {
		var err error
		if ns, err = cachestore.NearestWithinInto(e.deps.Store, vec, e.cfg.Vote.K, radius, ns[:0]); err != nil {
			return 0, ns
		}
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
	return removed, ns
}

// refreshScene re-anchors the cheap gates on a verified recognition.
func (e *Engine) refreshScene(im *vision.Image, thumb *vision.Thumb, label string, confidence float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.keyframes.PushThumb(im, thumb, label, confidence)
	e.detector.Mark()
}
