package eval

import (
	"fmt"
	"math/rand"

	"approxcache/internal/cachestore"
	"approxcache/internal/core"
	"approxcache/internal/feature"
	"approxcache/internal/imu"
	"approxcache/internal/lsh"
	"approxcache/internal/metrics"
	"approxcache/internal/simnet"
	"approxcache/internal/trace"
	"approxcache/internal/vision"
)

// Scale controls experiment size so the same code serves the CLI at
// full size and tests at small ones.
type Scale struct {
	// Frames is the per-device workload length.
	Frames int
	// Seed anchors all randomness.
	Seed int64
	// Workers is how many experiments/sweep points may run
	// concurrently; below 2 is serial. Results are identical at any
	// worker count — each work item is an independent simulation on its
	// own virtual clock.
	Workers int
}

// DefaultScale is the size used by cmd/approxbench.
func DefaultScale() Scale { return Scale{Frames: 2000, Seed: 42} }

func (s Scale) validate() error {
	if s.Frames <= 0 {
		return fmt.Errorf("eval: frames must be positive, got %d", s.Frames)
	}
	return nil
}

// small reports whether s is below the default size; the serving and
// lookup benchmarks (E20–E23) then run their test-friendly shape.
func (s Scale) small() bool { return s.Frames < DefaultScale().Frames }

// Experiment is one runnable experiment.
type Experiment struct {
	// ID is the experiment id, "E1" to "E25".
	ID string
	// Name is a short slug.
	Name string
	// Run executes the experiment at the given scale, which
	// RunExperiments has validated.
	Run func(Scale) Report
	// WallClock marks an experiment that reports real elapsed time.
	// RunExperiments runs these one at a time, with nothing else in
	// flight, so another worker's load cannot move their numbers.
	WallClock bool
	// minFrames, when set, is the shortest run the experiment measures:
	// RunExperiments refuses a smaller Scale.Frames, saying that what
	// needs them.
	minFrames int
	what      string
}

// All returns the full experiment suite in order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Name: "headline-latency", Run: E1Headline},
		{ID: "E2", Name: "threshold-sweep", Run: E2ThresholdSweep},
		{ID: "E3", Name: "hit-breakdown", Run: E3HitBreakdown},
		{ID: "E4", Name: "peer-sweep", Run: E4PeerSweep},
		{ID: "E5", Name: "capacity-sweep", Run: E5CapacitySweep},
		// E6 (energy) is retired into E1's energy column; IDs are not renumbered.
		{ID: "E7", Name: "lsh-ablation", Run: E7LSHAblation},
		{ID: "E8", Name: "motion-gate", Run: E8MotionGate},
		// E9 (adaptive-lsh) is retired; IDs are not renumbered.
		{ID: "E10", Name: "model-sweep", Run: E10ModelSweep},
		{ID: "E11", Name: "robustness", Run: E11Robustness},
		{ID: "E12", Name: "lossy-network", Run: E12LossyNetwork},
		// E13 (battery) is retired; IDs are not renumbered.
		{ID: "E14", Name: "gate-grid", Run: E14GateGrid},
		// E15 (latency-cdf) is retired into E1's p50 and p99 columns; IDs are not renumbered.
		// E16 (peer-coverage filter) is retired; IDs are not renumbered.
		{ID: "E17", Name: "peer-churn", Run: E17PeerChurn},
		{ID: "E18", Name: "chaos-resilience", Run: E18ChaosResilience, minFrames: chaosMinFrames, what: "chaos"},
		{ID: "E19", Name: "device-faults", Run: E19DeviceFaults, minFrames: faultMinFrames, what: "fault matrix"},
		{ID: "E20", Name: "serving-throughput", Run: E20Throughput, WallClock: true},
		{ID: "E21", Name: "overload-resilience", Run: E21Overload, WallClock: true},
		{ID: "E22", Name: "lookup-pipeline", Run: E22Lookup, WallClock: true},
		{ID: "E23", Name: "cache-quality", Run: E23Quality},
		// E24 (read-scalability) is retired; IDs are not renumbered.
		{ID: "E25", Name: "p2p-wire", Run: E25P2PWire},
	}
}

// ByID resolves an experiment by id ("E1") or name.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id || e.Name == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("eval: unknown experiment %q", id)
}

// baseline is the engine configuration of a system that does not
// approximate: no-cache, exact-cache or naive-skip. Baselines call the
// classifier unsupervised; every experiment runs them on a healthy one.
// They carry the default reuse streak, which only naive-skip reads: it
// reuses that many frames, then infers.
func baseline(mode core.Mode) core.Config {
	return core.Config{Mode: mode, DisableWatchdog: true, MaxReuseStreak: core.DefaultConfig().MaxReuseStreak}
}

// system is one pipeline the stationary-heavy comparisons run.
type system struct {
	name string
	cfg  core.Config
	// peers runs the device beside two helpers sharing its vocabulary.
	peers bool
}

// runStationary replays each system's main device on the
// stationary-heavy workload and returns the finished devices in order.
func runStationary(s Scale, systems []system) []*device {
	spec := trace.StationaryHeavy(s.Frames, s.Seed)
	devs := make([]*device, len(systems))
	for i, sys := range systems {
		if sys.peers {
			devs[i] = runGroup(crowd(spec, spec.Seed, 2, "helper", func(i int) trace.Spec {
				return trace.StationaryHeavy(spec.TotalFrames(), s.Seed+int64(i+1)*17)
			}, sys.cfg, s, 2), s.Seed, simnet.DefaultLinkProfile())[0]
		} else {
			devs[i] = runSingle(deviceConfig{Name: "main", Spec: spec, Engine: sys.cfg, Seed: s.Seed})
		}
	}
	return devs
}

// E1Headline reproduces the poster's headline claim: average latency of
// standard mobile image recognition reduced by up to 94% with minimal
// accuracy loss, on the reuse-friendly stationary-heavy workload. The
// same runs give each system's energy per frame, including the radio
// tax of P2P collaboration.
func E1Headline(s Scale) Report {
	systems := []system{
		{name: "no-cache", cfg: baseline(core.ModeNoCache)},
		{name: "exact-cache", cfg: baseline(core.ModeExactCache)},
		{name: "naive-skip (streak 20)", cfg: baseline(core.ModeNaiveSkip)},
		{name: "approx (local)", cfg: core.DefaultConfig()},
		{name: "approx (full, 2 peers)", cfg: core.DefaultConfig(), peers: true},
	}
	devs := runStationary(s, systems)
	report := Report{
		ID:      "E1",
		Title:   "Average recognition latency by system (stationary-heavy workload)",
		Headers: []string{"system", "mean", "p50", "p99", "hit-rate", "accuracy", "latency-reduction", "energy/frame (mJ)"},
		Notes: []string{
			"poster claim: up to 94% lower average latency with minimal accuracy loss",
			"exact-cache ≈ no-cache: bit-identical frames almost never recur (why approximation is needed)",
			"naive-skip reuses for the default streak (20 frames), then infers: approx's budget when the streak forces every inference, but blind through scene changes (accuracy cost)",
			"energy tracks latency: avoided inferences dominate; P2P adds a small radio tax on misses",
		},
	}
	baseMean := devs[0].lat.summary().Mean
	for i, dev := range devs {
		stats := dev.engine.Stats()
		sum := dev.lat.summary()
		reduction := "-"
		if baseMean > 0 && i > 0 {
			reduction = fmtPct(1 - float64(sum.Mean)/float64(baseMean))
		}
		report.Rows = append(report.Rows, []string{
			systems[i].name,
			fmtDur(sum.Mean),
			fmtDur(sum.P50),
			fmtDur(sum.P99),
			fmtPct(stats.HitRate()),
			fmtPct(stats.Accuracy()),
			reduction,
			fmtF(stats.EnergyMJ() / float64(stats.Frames())),
		})
	}
	return report
}

// E2ThresholdSweep traces the accuracy/latency trade-off as the reuse
// radius (the vote's MaxDistance) grows.
func E2ThresholdSweep(s Scale) Report {
	spec := trace.HandheldMix(s.Frames, s.Seed)
	report := Report{
		ID:      "E2",
		Title:   "Accuracy vs reuse aggressiveness (vote distance threshold, handheld-mix)",
		Headers: []string{"max-distance", "hit-rate", "local-hits", "accuracy", "mean-latency"},
		Notes: []string{
			"small thresholds barely reuse; large thresholds reuse across class boundaries and accuracy degrades",
		},
	}
	thresholds := []float64{0.05, 0.10, 0.15, 0.25, 0.35, 0.50, 0.70}
	rows := make([][]string, len(thresholds))
	parallelEach(len(thresholds), s.Workers, func(i int) {
		th := thresholds[i]
		cfg := core.DefaultConfig()
		cfg.Vote.MaxDistance = th
		// Isolate the feature-space decision: cheap gates off.
		cfg.DisableIMUGate = true
		cfg.DisableVideoGate = true
		stats := runSingle(deviceConfig{Name: "main", Spec: spec, Engine: cfg, Seed: s.Seed}).engine.Stats()
		rows[i] = []string{
			fmtF(th),
			fmtPct(stats.HitRate()),
			fmt.Sprintf("%d", stats.CountBySource()[metrics.SourceLocal]),
			fmtPct(stats.Accuracy()),
			fmtDur(stats.Latency().Mean()),
		}
	})
	report.Rows = append(report.Rows, rows...)
	return report
}

// E3HitBreakdown shows which reuse mechanism serves frames under each
// motion profile.
func E3HitBreakdown(s Scale) Report {
	// Source columns are derived from metrics.Sources() so the headers
	// can never drift from the per-source cells appended below.
	headers := []string{"workload"}
	for _, src := range metrics.Sources() {
		headers = append(headers, string(src))
	}
	headers = append(headers, "hit-rate", "accuracy")
	report := Report{
		ID:      "E3",
		Title:   "Hit-rate breakdown by reuse source and workload",
		Headers: headers,
		Notes: []string{
			"IMU reuse dominates stationary regimes; video locality absorbs handheld jitter; panning forces DNN work",
		},
	}
	for _, spec := range trace.StandardSpecs(s.Frames, s.Seed) {
		stats := runSingle(deviceConfig{Name: "main", Spec: spec, Engine: core.DefaultConfig(), Seed: s.Seed}).engine.Stats()
		frames := float64(stats.Frames())
		counts := stats.CountBySource()
		row := []string{spec.Name}
		for _, src := range metrics.Sources() {
			row = append(row, fmtPct(float64(counts[src])/frames))
		}
		row = append(row, fmtPct(stats.HitRate()), fmtPct(stats.Accuracy()))
		report.Rows = append(report.Rows, row)
	}
	return report
}

// E4PeerSweep measures the benefit of nearby devices: hit rate and
// latency as the peer count grows.
func E4PeerSweep(s Scale) Report {
	report := Report{
		ID:      "E4",
		Title:   "Benefit of nearby peers (walking-tour, shared vocabulary)",
		Headers: []string{"peers", "peer-hits", "peer-queries", "hit-rate", "mean-latency", "accuracy"},
		Notes: []string{
			"more peers raise the chance someone has already recognized the scene; returns diminish",
		},
	}
	for _, peers := range []int{0, 1, 2, 4, 8} {
		spec := trace.WalkingTour(s.Frames, s.Seed)
		spec.ClassSkew = 0.8 // popular exhibits: what peers share
		cfgs := crowd(spec, s.Seed+999, peers, "peer", func(i int) trace.Spec {
			return trace.WalkingTour(s.Frames, s.Seed+int64(i+1)*31)
		}, core.DefaultConfig(), s, 5)
		var main *device
		if peers == 0 {
			main = runSingle(cfgs[0])
		} else {
			main = runGroup(cfgs, s.Seed, simnet.DefaultLinkProfile())[0]
		}
		stats := main.engine.Stats()
		queries, hits := stats.PeerQueries()
		report.Rows = append(report.Rows, []string{
			fmt.Sprintf("%d", peers),
			fmt.Sprintf("%d", hits),
			fmt.Sprintf("%d", queries),
			fmtPct(stats.HitRate()),
			fmtDur(stats.Latency().Mean()),
			fmtPct(stats.Accuracy()),
		})
	}
	return report
}

// E5CapacitySweep compares eviction policies across cache sizes on the
// highest-pressure workload.
func E5CapacitySweep(s Scale) Report {
	spec := trace.PanningSweep(s.Frames, s.Seed)
	report := Report{
		ID:      "E5",
		Title:   "Cache capacity and eviction policy (panning-sweep)",
		Headers: []string{"capacity", "policy", "hit-rate", "mean-latency", "evictions"},
		Notes: []string{
			"cost-aware eviction keeps the entries whose reuse saves the most inference time",
		},
	}
	var points []cachestore.Config
	for _, capacity := range []int{8, 16, 32, 64, 128} {
		for _, policy := range []cachestore.Policy{cachestore.LRU, cachestore.LFU, cachestore.CostAware} {
			points = append(points, cachestore.Config{Capacity: capacity, Policy: policy})
		}
	}
	rows := make([][]string, len(points))
	parallelEach(len(points), s.Workers, func(i int) {
		p := points[i]
		dev := runSingle(deviceConfig{Name: "main", Spec: spec, Engine: core.DefaultConfig(), Store: p, Seed: s.Seed})
		stats := dev.engine.Stats()
		rows[i] = []string{
			fmt.Sprintf("%d", p.Capacity),
			p.Policy.String(),
			fmtPct(stats.HitRate()),
			fmtDur(stats.Latency().Mean()),
			fmt.Sprintf("%d", dev.store.Evictions()),
		}
	})
	report.Rows = append(report.Rows, rows...)
	return report
}

// E7LSHAblation grades the LSH index design: recall against exact
// search and candidate-set size, on what every cache indexes —
// descriptors of rendered frames (E22's population), which crowd the
// positive orthant.
func E7LSHAblation(s Scale) Report {
	const queries = 200
	cs := must(vision.NewClassSet(lookupClasses, 48, 48, s.Seed))
	ex := feature.DefaultExtractor()
	rng := rand.New(rand.NewSource(s.Seed))
	vecs := renderDescriptors(cs, ex, min(s.Frames, 5000), rng) // index size scales with the experiment
	qs := renderDescriptors(cs, ex, queries, rng)
	truth := exactTruth(ex.Dim(), vecs, qs, 1)

	report := Report{
		ID:      "E7",
		Title:   fmt.Sprintf("LSH design ablation (recall@1 vs exact search, rendered-frame descriptors, %d classes)", lookupClasses),
		Headers: []string{"bits", "tables", "recall@1", "mean-candidates"},
		Notes: []string{
			"more tables recover recall lost to narrower buckets; lookup cost tracks candidate volume (E22 and HotPathNearest time it)",
		},
	}
	bitsGrid, tablesGrid := []int{8, 12, 16, 20}, []int{1, 2, 4, 8}
	report.Rows = make([][]string, len(bitsGrid)*len(tablesGrid))
	parallelEach(len(report.Rows), s.Workers, func(i int) {
		bits, tables := bitsGrid[i/len(tablesGrid)], tablesGrid[i%len(tablesGrid)]
		recall, cands := probe(must(lsh.NewHyperplane(ex.Dim(), bits, tables, s.Seed)), vecs, qs, truth)
		report.Rows[i] = []string{
			fmt.Sprintf("%d", bits),
			fmt.Sprintf("%d", tables),
			fmtPct(recall),
			fmtF(cands),
		}
	})
	return report
}

// E8MotionGate sweeps the inertial gate thresholds, trading reuse rate
// against false reuse (IMU-served frames whose label was wrong).
func E8MotionGate(s Scale) Report {
	report := Report{
		ID:      "E8",
		Title:   "Inertial gate threshold sweep (handheld-mix)",
		Headers: []string{"threshold-scale", "imu-hits", "imu-share", "hit-rate", "accuracy", "mean-latency"},
		Notes: []string{
			"loose thresholds reuse through real motion and cost accuracy; tight ones forfeit the cheapest gate",
		},
	}
	spec := trace.HandheldMix(s.Frames, s.Seed)
	scales := []float64{0.25, 0.5, 1, 2, 4, 8}
	rows := make([][]string, len(scales))
	parallelEach(len(scales), s.Workers, func(i int) {
		scale := scales[i]
		cfg := core.DefaultConfig()
		base := imu.DefaultDetectorConfig()
		cfg.IMU = imu.DetectorConfig{
			Window:            base.Window,
			AccelVarThreshold: base.AccelVarThreshold * scale,
			GyroMeanThreshold: base.GyroMeanThreshold * scale,
			MaxRotation:       base.MaxRotation * scale,
		}
		stats := runSingle(deviceConfig{Name: "main", Spec: spec, Engine: cfg, Seed: s.Seed}).engine.Stats()
		imuHits := stats.CountBySource()[metrics.SourceIMU]
		rows[i] = []string{
			fmtF(scale),
			fmt.Sprintf("%d", imuHits),
			fmtPct(float64(imuHits) / float64(stats.Frames())),
			fmtPct(stats.HitRate()),
			fmtPct(stats.Accuracy()),
			fmtDur(stats.Latency().Mean()),
		}
	})
	report.Rows = append(report.Rows, rows...)
	return report
}

// randUnitVec draws a direction uniformly at random.
func randUnitVec(r *rand.Rand, dim int) feature.Vector {
	v := make(feature.Vector, dim)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	v.Normalize()
	return v
}

// perturb returns center plus independent N(0, sigma²) noise on every
// dimension, scaled back to unit length.
func perturb(center feature.Vector, rng *rand.Rand, sigma float64) feature.Vector {
	v := center.Clone()
	for d := range v {
		v[d] += rng.NormFloat64() * sigma
	}
	v.Normalize()
	return v
}

// exactTruth returns each query's k exact nearest neighbours among vecs,
// whose IDs are their positions.
func exactTruth(dim int, vecs, queries []feature.Vector, k int) [][]lsh.ID {
	exact := must(lsh.NewExact(dim))
	for i, v := range vecs {
		check(exact.Insert(lsh.ID(i), v))
	}
	truth := make([][]lsh.ID, len(queries))
	for i, q := range queries {
		for _, n := range must(exact.Nearest(q, k)) {
			truth[i] = append(truth[i], n.ID)
		}
	}
	return truth
}

// probe loads vecs into idx (IDs are positions), then asks it every
// query: it returns recall@1 against truth and the mean candidate-set
// size.
func probe(idx *lsh.HyperplaneIndex, vecs, queries []feature.Vector, truth [][]lsh.ID) (recall, cands float64) {
	for i, v := range vecs {
		check(idx.Insert(lsh.ID(i), v))
	}
	hits, total := 0, 0
	var cs []lsh.ID
	for i, q := range queries {
		cs = must(idx.CandidatesInto(q, cs))
		total += len(cs)
		if ns := must(idx.Nearest(q, 1)); len(ns) > 0 && ns[0].ID == truth[i][0] {
			hits++
		}
	}
	n := float64(len(queries))
	return float64(hits) / n, float64(total) / n
}
