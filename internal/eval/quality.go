package eval

import (
	"fmt"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/core"
	"approxcache/internal/dnn"
	"approxcache/internal/simclock"
	"approxcache/internal/trace"
)

// The cache-quality benchmark: injected label drift against one
// serving node, with and without the self-healing quality layer.
//
// At the drift frame the classifier's label space rotates (model
// drift: a model update or a changed world — dnn.FaultDrift) and
// ground truth follows it, so every result cached before the drift is
// silently wrong afterwards. Nothing errors, nothing slows down: the
// only symptom is reuse answers that no longer match what the DNN
// would say. This is the failure mode approximate caching is uniquely
// exposed to — the whole system exists to NOT run the DNN, so it
// cannot notice the DNN changed its mind.
//
// Three runs share one workload, seed, and node shape:
//
//   - baseline: no drift, quality layer off — the accuracy and
//     latency-savings ceiling.
//   - unprotected: drift injected, quality layer off. Recovery rides
//     only on MaxReuseStreak revalidation and repair.
//   - protected: drift injected, quality layer on — shadow audits,
//     quarantine, and drift-adaptive gate recalibration.
//
// Scoring is over the tail (final third) of the run, well past the
// drift onset: steady-state accuracy, and latency savings versus
// always running the DNN. The regression gate (cmd/benchgate
// -quality-json) enforces the headline couple: the protected node's
// tail accuracy recovers to ≥ 0.95× the no-drift baseline while
// retaining ≥ 0.6× of the baseline's latency savings.

// Quality run names, in report order.
const (
	qualityBaseline    = "baseline"
	qualityUnprotected = "unprotected"
	qualityProtected   = "protected"
)

// The drift benchmark's shape. It runs qualityFrames frames (600 at a
// small scale); drift starts a third of the way in and recurs every
// eighth of the run. Drift is recurring because concept drift is: a
// single rotation is healed for free by the streak cap's scheduled
// revalidation, but ongoing drift keeps re-poisoning the cache, so
// steady-state accuracy measures how FAST a node heals, not whether it
// eventually does.
const (
	qualityFrames = 1800
	// qualityShift rotates the label space by this many classes per
	// episode.
	qualityShift = 3
	// qualityCapacity is the node's cache: LRU, a zero store policy.
	qualityCapacity = 256
	// qualityAuditEvery has the protected run audit every 4th reuse,
	// synchronously (deterministic on the virtual clock): dense
	// sampling, so recovery is measurable at bench scale.
	qualityAuditEvery = 4
	// qualityQuarantine is the protected store's quarantine threshold:
	// an audit verdict is the full DNN speaking, so one refute is
	// already strong evidence under injected drift.
	qualityQuarantine = 1
)

// QualityRun is one node's measured outcome.
type QualityRun struct {
	Name   string `json:"name"`
	Frames int    `json:"frames"`
	// TailAccuracy is ground-truth accuracy over the final third.
	TailAccuracy float64 `json:"tail_accuracy"`
	// TailMeanLatencyMS is the mean frame latency over the final third.
	TailMeanLatencyMS float64 `json:"tail_mean_latency_ms"`
	// LatencySavings is 1 − tail mean latency / model mean latency:
	// the fraction of inference cost the cache still avoids.
	LatencySavings float64 `json:"latency_savings"`
	// FullAccuracy is accuracy over the whole run (includes the
	// drift-transition trough).
	FullAccuracy float64 `json:"full_accuracy"`
	// Quality-layer activity (protected run only; zero elsewhere).
	Audits          int     `json:"audits,omitempty"`
	AuditRefutes    int     `json:"audit_refutes,omitempty"`
	Quarantines     int     `json:"quarantines,omitempty"`
	Paroles         int     `json:"paroles,omitempty"`
	ParoleEvictions int     `json:"parole_evictions,omitempty"`
	RecalTightens   int     `json:"recal_tightens,omitempty"`
	RecalLoosens    int     `json:"recal_loosens,omitempty"`
	ReuseRefusals   int     `json:"reuse_refusals,omitempty"`
	LiveAccuracy    float64 `json:"live_accuracy,omitempty"`
}

// QualityReport is the full benchmark outcome, serialized to
// BENCH_quality.json and gated by cmd/benchgate.
type QualityReport struct {
	Frames     int          `json:"frames"`
	DriftFrame int          `json:"drift_frame"`
	Shift      int          `json:"shift"`
	Runs       []QualityRun `json:"runs"`
	// AccuracyRecovery is protected tail accuracy over baseline tail
	// accuracy — the gated number (≥ 0.95).
	AccuracyRecovery float64 `json:"accuracy_recovery"`
	// SavingsRetention is protected latency savings over baseline
	// latency savings — the gated number (≥ 0.6).
	SavingsRetention float64 `json:"savings_retention"`
	// UnprotectedAccuracy is the drifted, unlayered node's tail
	// accuracy, for contrast.
	UnprotectedAccuracy float64 `json:"unprotected_accuracy"`
}

// runQualityNode replays a stationary-heavy workload of the given
// length against one freshly built node. drift injects the recurring
// label rotation; protect turns the quality layer (and store
// quarantine) on.
func runQualityNode(frames int, seed int64, drift, protect bool) QualityRun {
	spec := trace.StationaryHeavy(frames, seed)
	ecfg := core.DefaultConfig()
	scfg := cachestore.Config{Capacity: qualityCapacity}
	if protect {
		ecfg.Quality = core.QualityConfig{Enabled: true, AuditSampleEvery: qualityAuditEvery}
		scfg.QuarantineThreshold = qualityQuarantine
	}
	var faulty *dnn.FaultyClassifier
	dev := buildDevice(deviceConfig{
		Name: "main", Spec: spec, Engine: ecfg, Store: scfg, Seed: seed,
		WrapClassifier: func(c *dnn.Classifier) core.Classifier {
			faulty = must(dnn.NewFaultyClassifier(c, nil))
			return faulty
		},
	}, simclock.NewVirtual(time.Unix(0, 0)), nil)

	driftAt, driftEvery, tailStart := frames/3, frames/8, frames-frames/3
	tailCorrect, tailFrames, fullCorrect := 0, 0, 0
	var tailLatency time.Duration
	shift := 0
	relabel := func(s string) string { return s }
	dev.replay(hooks{
		before: func(i int, in *frameInput) {
			if drift && i >= driftAt && (i-driftAt)%driftEvery == 0 {
				// Another drift episode: the rotation compounds. Install
				// it at the classifier's CURRENT call number (retries and
				// shadow audits included), open-ended until the next one.
				shift += qualityShift
				relabel = dnn.ShiftRelabel(shift, spec.NumClasses)
				check(faulty.SetFaultPlan(dnn.FaultPlan{{
					From: faulty.Calls(), To: 1 << 30,
					Kind: dnn.FaultDrift, Relabel: relabel,
				}}))
			}
			// Model drift, not model error: truth follows the drifted
			// model, so everything cached before each episode is wrong
			// after it.
			in.truth = relabel(in.truth)
		},
		after: func(i int, in *frameInput, res core.Result, err error) {
			check(err)
			if res.Label == in.truth {
				fullCorrect++
			}
			if i >= tailStart {
				tailFrames++
				tailLatency += res.Latency
				if res.Label == in.truth {
					tailCorrect++
				}
			}
		},
	})

	run := QualityRun{Name: qualityBaseline, Frames: frames}
	switch {
	case drift && protect:
		run.Name = qualityProtected
	case drift:
		run.Name = qualityUnprotected
	}
	run.TailAccuracy = float64(tailCorrect) / float64(tailFrames)
	run.FullAccuracy = float64(fullCorrect) / float64(frames)
	meanTail := time.Duration(int64(tailLatency) / int64(tailFrames))
	run.TailMeanLatencyMS = float64(meanTail) / float64(time.Millisecond)
	run.LatencySavings = 1 - float64(meanTail)/float64(dnn.MobileNetV2.MeanLatency)
	stats := dev.engine.Stats()
	run.Audits, run.AuditRefutes = stats.Audits()
	q := dev.store.QuarantineStats()
	run.Quarantines, run.Paroles, run.ParoleEvictions = q.Total, q.Paroled, q.Evicted
	run.RecalTightens, run.RecalLoosens = stats.RecalibrationEvents()
	run.ReuseRefusals = stats.ReuseRefusals()
	if snap, ok := dev.engine.QualitySnapshot(); ok {
		run.LiveAccuracy = snap.LiveAccuracy
	}
	return run
}

// runQuality measures all three runs and computes the headline
// recovery and retention numbers.
func runQuality(s Scale) QualityReport {
	frames := qualityFrames
	if s.small() {
		frames = 600
	}
	rep := QualityReport{Frames: frames, DriftFrame: frames / 3, Shift: qualityShift}
	var base, prot QualityRun
	for _, r := range []struct {
		drift, protect bool
	}{{false, false}, {true, false}, {true, true}} {
		run := runQualityNode(frames, s.Seed, r.drift, r.protect)
		rep.Runs = append(rep.Runs, run)
		switch run.Name {
		case qualityBaseline:
			base = run
		case qualityProtected:
			prot = run
		case qualityUnprotected:
			rep.UnprotectedAccuracy = run.TailAccuracy
		}
	}
	if base.TailAccuracy > 0 {
		rep.AccuracyRecovery = prot.TailAccuracy / base.TailAccuracy
	}
	if base.LatencySavings > 0 {
		rep.SavingsRetention = prot.LatencySavings / base.LatencySavings
	}
	return rep
}

// E23Quality is the cache-quality experiment: injected label drift
// with and without the self-healing layer, at a test-friendly size
// when scaled down.
func E23Quality(s Scale) Report {
	rep := runQuality(s)
	out := Report{
		ID:    "E23",
		Title: "Cache quality under label drift: shadow audits + quarantine + recalibration",
		Headers: []string{"node", "tail acc", "full acc", "tail ms", "savings",
			"audits", "refutes", "quar", "parole", "refusals"},
		Data: rep,
	}
	for _, r := range rep.Runs {
		out.Rows = append(out.Rows, []string{
			r.Name, fmtF(r.TailAccuracy), fmtF(r.FullAccuracy),
			fmtF(r.TailMeanLatencyMS), fmtF(r.LatencySavings),
			fmt.Sprintf("%d", r.Audits), fmt.Sprintf("%d", r.AuditRefutes),
			fmt.Sprintf("%d", r.Quarantines), fmt.Sprintf("%d", r.Paroles),
			fmt.Sprintf("%d", r.ReuseRefusals),
		})
	}
	out.Notes = append(out.Notes,
		fmt.Sprintf("label space rotated by %d at frame %d; truth follows the drifted model",
			rep.Shift, rep.DriftFrame),
		fmt.Sprintf("accuracy recovery %.2f (gate ≥ 0.95), savings retention %.2f (gate ≥ 0.60)",
			rep.AccuracyRecovery, rep.SavingsRetention),
		fmt.Sprintf("unprotected tail accuracy for contrast: %.2f", rep.UnprotectedAccuracy),
	)
	return out
}
