package eval

import (
	"fmt"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/core"
	"approxcache/internal/dnn"
	"approxcache/internal/lsh"
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
	QualityBaseline    = "baseline"
	QualityUnprotected = "unprotected"
	QualityProtected   = "protected"
)

// QualityBenchConfig shapes the drift benchmark.
type QualityBenchConfig struct {
	// Frames is the workload length (default 1800).
	Frames int
	// DriftFrame is the drift onset (default Frames/3).
	DriftFrame int
	// DriftEvery repeats the rotation every this many frames after the
	// onset (default Frames/8). Drift is recurring because concept
	// drift is: a single rotation is healed for free by the streak
	// cap's scheduled revalidation, but ongoing drift keeps re-poisoning
	// the cache, so steady-state accuracy measures how FAST a node
	// heals, not whether it eventually does.
	DriftEvery int
	// Shift rotates the label space by this many classes per episode
	// (default 3).
	Shift int
	// Seed anchors all randomness.
	Seed int64
	// Capacity is the node's cache capacity (default 256).
	Capacity int
	// Profile is the model profile (default MobileNetV2).
	Profile dnn.Profile
	// Quality is the protected run's layer tuning. Zero fields default
	// to a bench-friendly shape: synchronous audits (deterministic on
	// the virtual clock), dense sampling (every 4th reuse) so recovery
	// is measurable at bench scale.
	Quality core.QualityConfig
	// QuarantineThreshold is the protected run's store threshold
	// (default 1: an audit verdict is the full DNN speaking, so one
	// refute is already strong evidence under injected drift).
	QuarantineThreshold int
}

func (c *QualityBenchConfig) defaults() {
	if c.Frames == 0 {
		c.Frames = 1800
	}
	if c.DriftFrame == 0 {
		c.DriftFrame = c.Frames / 3
	}
	if c.DriftEvery == 0 {
		c.DriftEvery = c.Frames / 8
	}
	if c.Shift == 0 {
		c.Shift = 3
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Capacity == 0 {
		c.Capacity = 256
	}
	if c.Profile.Name == "" {
		c.Profile = dnn.MobileNetV2
	}
	c.Quality.Enabled = true
	c.Quality.Synchronous = true
	if c.Quality.AuditSampleEvery == 0 {
		c.Quality.AuditSampleEvery = 4
	}
	if c.QuarantineThreshold == 0 {
		c.QuarantineThreshold = 1
	}
}

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

// runQualityNode replays the workload against one freshly built node.
// drift injects the label rotation at cfg.DriftFrame; protect turns
// the quality layer (and store quarantine) on.
func runQualityNode(cfg QualityBenchConfig, drift, protect bool) (QualityRun, error) {
	spec := trace.StationaryHeavy(cfg.Frames, cfg.Seed)
	w, err := trace.Generate(spec)
	if err != nil {
		return QualityRun{}, err
	}
	classifier, err := dnn.NewClassifier(cfg.Profile, w.Classes, cfg.Seed)
	if err != nil {
		return QualityRun{}, err
	}
	faulty, err := dnn.NewFaultyClassifier(classifier, nil)
	if err != nil {
		return QualityRun{}, err
	}
	clock := simclock.NewVirtual(time.Unix(0, 0))
	ecfg := core.DefaultConfig()
	scfg := cachestore.Config{Capacity: cfg.Capacity}
	if protect {
		ecfg.Quality = cfg.Quality
		scfg.QuarantineThreshold = cfg.QuarantineThreshold
	}
	idx, err := lsh.NewHyperplane(ecfg.Extractor.Dim(), 12, 4, cfg.Seed)
	if err != nil {
		return QualityRun{}, err
	}
	store, err := cachestore.New(scfg, idx, clock)
	if err != nil {
		return QualityRun{}, err
	}
	eng, err := core.New(ecfg, core.Deps{Clock: clock, Classifier: faulty, Store: store})
	if err != nil {
		return QualityRun{}, err
	}

	tailStart := cfg.Frames - cfg.Frames/3
	var prev time.Duration
	tailCorrect, tailFrames, fullCorrect := 0, 0, 0
	var tailLatency time.Duration
	shift := 0
	relabel := func(s string) string { return s }
	for i, fr := range w.Frames {
		if drift && i >= cfg.DriftFrame && (i-cfg.DriftFrame)%cfg.DriftEvery == 0 {
			// Another drift episode: the rotation compounds. Install it
			// at the classifier's CURRENT call number (retries and
			// shadow audits included), open-ended until the next one.
			shift += cfg.Shift
			relabel = dnn.ShiftRelabel(shift, spec.NumClasses)
			if err := faulty.SetFaultPlan(dnn.FaultPlan{{
				From: faulty.Calls(), To: 1 << 30,
				Kind: dnn.FaultDrift, Relabel: relabel,
			}}); err != nil {
				return QualityRun{}, err
			}
		}
		// Model drift, not model error: truth follows the drifted
		// model, so everything cached before each episode is wrong
		// after it.
		truth := relabel(dnn.LabelOf(fr.Class))
		win := w.IMUWindow(prev, fr.Offset)
		prev = fr.Offset
		res, err := eng.ProcessWithTruth(fr.Image, win, truth)
		if err != nil {
			return QualityRun{}, fmt.Errorf("frame %d: %w", i, err)
		}
		if res.Label == truth {
			fullCorrect++
			if i >= tailStart {
				tailCorrect++
			}
		}
		if i >= tailStart {
			tailFrames++
			tailLatency += res.Latency
		}
	}
	eng.DrainAudits()

	run := QualityRun{Name: QualityBaseline, Frames: cfg.Frames}
	switch {
	case drift && protect:
		run.Name = QualityProtected
	case drift:
		run.Name = QualityUnprotected
	}
	run.TailAccuracy = float64(tailCorrect) / float64(tailFrames)
	run.FullAccuracy = float64(fullCorrect) / float64(cfg.Frames)
	meanTail := time.Duration(int64(tailLatency) / int64(tailFrames))
	run.TailMeanLatencyMS = float64(meanTail) / float64(time.Millisecond)
	run.LatencySavings = 1 - float64(meanTail)/float64(cfg.Profile.MeanLatency)
	stats := eng.Stats()
	run.Audits, run.AuditRefutes = stats.Audits()
	run.Quarantines, run.Paroles, run.ParoleEvictions = stats.QuarantineEvents()
	run.RecalTightens, run.RecalLoosens = stats.RecalibrationEvents()
	run.ReuseRefusals = stats.ReuseRefusals()
	if snap, ok := eng.QualitySnapshot(); ok {
		run.LiveAccuracy = snap.LiveAccuracy
	}
	return run, nil
}

// RunQuality measures all three runs and computes the headline
// recovery and retention numbers.
func RunQuality(cfg QualityBenchConfig) (QualityReport, error) {
	cfg.defaults()
	rep := QualityReport{Frames: cfg.Frames, DriftFrame: cfg.DriftFrame, Shift: cfg.Shift}
	var base, prot QualityRun
	for _, r := range []struct {
		drift, protect bool
	}{{false, false}, {true, false}, {true, true}} {
		run, err := runQualityNode(cfg, r.drift, r.protect)
		if err != nil {
			return QualityReport{}, fmt.Errorf("%v/%v: %w", r.drift, r.protect, err)
		}
		rep.Runs = append(rep.Runs, run)
		switch run.Name {
		case QualityBaseline:
			base = run
		case QualityProtected:
			prot = run
		case QualityUnprotected:
			rep.UnprotectedAccuracy = run.TailAccuracy
		}
	}
	if base.TailAccuracy > 0 {
		rep.AccuracyRecovery = prot.TailAccuracy / base.TailAccuracy
	}
	if base.LatencySavings > 0 {
		rep.SavingsRetention = prot.LatencySavings / base.LatencySavings
	}
	return rep, nil
}

// E23Quality is the cache-quality experiment: injected label drift
// with and without the self-healing layer, at a test-friendly size
// when scaled down.
func E23Quality(scale Scale) (Report, error) {
	cfg := QualityBenchConfig{Seed: scale.Seed}
	if scale.Frames < DefaultScale().Frames {
		cfg.Frames = 600
	}
	rep, err := RunQuality(cfg)
	if err != nil {
		return Report{}, err
	}
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
	return out, nil
}
