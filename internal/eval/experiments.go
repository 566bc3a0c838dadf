package eval

import (
	"fmt"
	"math/rand"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/core"
	"approxcache/internal/feature"
	"approxcache/internal/imu"
	"approxcache/internal/lsh"
	"approxcache/internal/metrics"
	"approxcache/internal/simnet"
	"approxcache/internal/trace"
)

// Scale controls experiment size so the same code serves the CLI
// (full) and the benchmarks (small).
type Scale struct {
	// Frames is the per-device workload length.
	Frames int
	// Seed anchors all randomness.
	Seed int64
	// Workers is how many experiments/sweep points may run
	// concurrently. 0 or 1 is serial; negative means one per CPU.
	// Results are identical at any worker count — each work item is an
	// independent simulation on its own virtual clock.
	Workers int
}

// DefaultScale is the size used by cmd/approxbench.
func DefaultScale() Scale { return Scale{Frames: 2000, Seed: 42} }

// SmallScale is a fast size for tests and benchmarks.
func SmallScale() Scale { return Scale{Frames: 300, Seed: 42} }

func (s Scale) validate() error {
	if s.Frames <= 0 {
		return fmt.Errorf("eval: frames must be positive, got %d", s.Frames)
	}
	return nil
}

// Experiment is one runnable experiment.
type Experiment struct {
	// ID is "E1".."E8".
	ID string
	// Name is a short slug.
	Name string
	// Run executes the experiment at the given scale.
	Run func(Scale) (Report, error)
	// WallClock marks an experiment that reports real elapsed time.
	// RunExperiments runs these one at a time, with nothing else in
	// flight, so another worker's load cannot move their numbers.
	WallClock bool
}

// All returns the full experiment suite in order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Name: "headline-latency", Run: E1Headline},
		{ID: "E2", Name: "threshold-sweep", Run: E2ThresholdSweep},
		{ID: "E3", Name: "hit-breakdown", Run: E3HitBreakdown},
		{ID: "E4", Name: "peer-sweep", Run: E4PeerSweep},
		{ID: "E5", Name: "capacity-sweep", Run: E5CapacitySweep},
		{ID: "E6", Name: "energy", Run: E6Energy},
		{ID: "E7", Name: "lsh-ablation", Run: E7LSHAblation, WallClock: true},
		{ID: "E8", Name: "motion-gate", Run: E8MotionGate},
		{ID: "E9", Name: "adaptive-lsh", Run: E9AdaptiveLSH},
		{ID: "E10", Name: "model-sweep", Run: E10ModelSweep},
		{ID: "E11", Name: "robustness", Run: E11Robustness},
		{ID: "E12", Name: "lossy-network", Run: E12LossyNetwork},
		{ID: "E13", Name: "battery", Run: E13Battery},
		{ID: "E14", Name: "gate-grid", Run: E14GateGrid},
		{ID: "E15", Name: "latency-cdf", Run: E15LatencyCDF},
		{ID: "E16", Name: "digest-filter", Run: E16DigestFilter},
		{ID: "E17", Name: "peer-churn", Run: E17PeerChurn},
		{ID: "E18", Name: "chaos-resilience", Run: E18ChaosResilience},
		{ID: "E19", Name: "device-faults", Run: E19DeviceFaults},
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

// E1Headline reproduces the poster's headline claim: average latency of
// standard mobile image recognition reduced by up to 94% with minimal
// accuracy loss, on the reuse-friendly stationary-heavy workload.
func E1Headline(s Scale) (Report, error) {
	if err := s.validate(); err != nil {
		return Report{}, err
	}
	spec := trace.StationaryHeavy(s.Frames, s.Seed)

	type system struct {
		name string
		cfg  core.Config
		peer bool
	}
	approx := core.DefaultConfig()
	systems := []system{
		{name: "no-cache", cfg: core.Config{Mode: core.ModeNoCache, Costs: core.DefaultCostModel()}},
		{name: "exact-cache", cfg: core.Config{Mode: core.ModeExactCache, Costs: core.DefaultCostModel()}},
		{name: "naive-skip (1/20)", cfg: core.Config{
			Mode: core.ModeNaiveSkip, SkipEvery: 20, Costs: core.DefaultCostModel(),
		}},
		{name: "approx (local)", cfg: approx},
		{name: "approx (full, 2 peers)", cfg: approx, peer: true},
	}

	var baseMean time.Duration
	report := Report{
		ID:      "E1",
		Title:   "Average recognition latency by system (stationary-heavy workload)",
		Headers: []string{"system", "mean", "p50", "p99", "hit-rate", "accuracy", "latency-reduction"},
		Notes: []string{
			"poster claim: up to 94% lower average latency with minimal accuracy loss",
			"exact-cache ≈ no-cache: bit-identical frames almost never recur (why approximation is needed)",
			"naive-skip matches the inference budget but reuses blindly through scene changes (accuracy cost)",
		},
	}
	for _, sys := range systems {
		var dev *device
		var err error
		if sys.peer {
			dev, err = e1Group(spec, sys.cfg, s)
		} else {
			dev, err = runSingle(DeviceConfig{
				Name: "main", Spec: spec, Engine: sys.cfg, Seed: s.Seed,
			})
		}
		if err != nil {
			return Report{}, fmt.Errorf("%s: %w", sys.name, err)
		}
		stats := dev.engine.Stats()
		sum := dev.lat.summary()
		if sys.name == "no-cache" {
			baseMean = sum.Mean
		}
		reduction := "-"
		if baseMean > 0 && sys.name != "no-cache" {
			reduction = fmtPct(1 - float64(sum.Mean)/float64(baseMean))
		}
		report.Rows = append(report.Rows, []string{
			sys.name,
			fmtDur(sum.Mean),
			fmtDur(sum.P50),
			fmtDur(sum.P99),
			fmtPct(stats.HitRate()),
			fmtPct(stats.Accuracy()),
			reduction,
		})
	}
	return report, nil
}

// e1Group runs the main device plus two helpers sharing its class set
// and returns the finished main device.
func e1Group(spec trace.Spec, cfg core.Config, s Scale) (*device, error) {
	classSeed := spec.Seed
	main := spec
	main.ClassSeed = classSeed
	cfgs := []DeviceConfig{{Name: "main", Spec: main, Engine: cfg, Seed: s.Seed}}
	for i := 0; i < 2; i++ {
		helper := trace.StationaryHeavy(spec.TotalFrames(), s.Seed+int64(i+1)*17)
		helper.Name = fmt.Sprintf("helper-%d", i)
		helper.ClassSeed = classSeed
		cfgs = append(cfgs, DeviceConfig{
			Name:   fmt.Sprintf("helper-%d", i),
			Spec:   helper,
			Engine: cfg,
			Seed:   s.Seed + int64(i+2),
		})
	}
	devices, err := runGroupLink(cfgs, s.Seed, simnet.DefaultLinkProfile())
	if err != nil {
		return nil, err
	}
	return devices[0], nil
}

// E2ThresholdSweep traces the accuracy/latency trade-off as the reuse
// radius (the vote's MaxDistance) grows.
func E2ThresholdSweep(s Scale) (Report, error) {
	if err := s.validate(); err != nil {
		return Report{}, err
	}
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
	err := parallelEach(len(thresholds), s.workers(), func(i int) error {
		th := thresholds[i]
		cfg := core.DefaultConfig()
		cfg.Vote.MaxDistance = th
		// Isolate the feature-space decision: cheap gates off.
		cfg.DisableIMUGate = true
		cfg.DisableVideoGate = true
		stats, _, err := RunSingle(DeviceConfig{
			Name: "main", Spec: spec, Engine: cfg, Seed: s.Seed,
		})
		if err != nil {
			return fmt.Errorf("threshold %v: %w", th, err)
		}
		counts := stats.CountBySource()
		rows[i] = []string{
			fmtF(th),
			fmtPct(stats.HitRate()),
			fmt.Sprintf("%d", counts[metrics.SourceLocal]),
			fmtPct(stats.Accuracy()),
			fmtDur(stats.Latency().Mean()),
		}
		return nil
	})
	if err != nil {
		return Report{}, err
	}
	report.Rows = append(report.Rows, rows...)
	return report, nil
}

// E3HitBreakdown shows which reuse mechanism serves frames under each
// motion profile.
func E3HitBreakdown(s Scale) (Report, error) {
	if err := s.validate(); err != nil {
		return Report{}, err
	}
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
		stats, _, err := RunSingle(DeviceConfig{
			Name: "main", Spec: spec, Engine: core.DefaultConfig(), Seed: s.Seed,
		})
		if err != nil {
			return Report{}, fmt.Errorf("%s: %w", spec.Name, err)
		}
		frames := float64(stats.Frames())
		counts := stats.CountBySource()
		row := []string{spec.Name}
		for _, src := range metrics.Sources() {
			row = append(row, fmtPct(float64(counts[src])/frames))
		}
		row = append(row, fmtPct(stats.HitRate()), fmtPct(stats.Accuracy()))
		report.Rows = append(report.Rows, row)
	}
	return report, nil
}

// E4PeerSweep measures the benefit of nearby devices: hit rate and
// latency as the peer count grows.
func E4PeerSweep(s Scale) (Report, error) {
	if err := s.validate(); err != nil {
		return Report{}, err
	}
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
		spec.ClassSeed = s.Seed + 999
		spec.ClassSkew = 0.8 // popular exhibits: what peers share
		cfgs := []DeviceConfig{{
			Name: "main", Spec: spec, Engine: core.DefaultConfig(), Seed: s.Seed,
		}}
		for i := 0; i < peers; i++ {
			helper := trace.WalkingTour(s.Frames, s.Seed+int64(i+1)*31)
			helper.ClassSeed = spec.ClassSeed
			helper.ClassSkew = spec.ClassSkew
			helper.Name = fmt.Sprintf("peer-%d", i)
			cfgs = append(cfgs, DeviceConfig{
				Name:   fmt.Sprintf("peer-%d", i),
				Spec:   helper,
				Engine: core.DefaultConfig(),
				Seed:   s.Seed + int64(i+5),
			})
		}
		var stats *metrics.SessionStats
		if peers == 0 {
			var err error
			stats, _, err = RunSingle(cfgs[0])
			if err != nil {
				return Report{}, err
			}
		} else {
			group, err := RunGroup(cfgs, s.Seed)
			if err != nil {
				return Report{}, err
			}
			stats = group["main"]
		}
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
	return report, nil
}

// E5CapacitySweep compares eviction policies across cache sizes on the
// highest-pressure workload.
func E5CapacitySweep(s Scale) (Report, error) {
	if err := s.validate(); err != nil {
		return Report{}, err
	}
	spec := trace.PanningSweep(s.Frames, s.Seed)
	report := Report{
		ID:      "E5",
		Title:   "Cache capacity and eviction policy (panning-sweep)",
		Headers: []string{"capacity", "policy", "hit-rate", "mean-latency", "evictions"},
		Notes: []string{
			"cost-aware eviction keeps the entries whose reuse saves the most inference time",
		},
	}
	type point struct {
		capacity int
		policy   cachestore.Policy
	}
	var points []point
	for _, capacity := range []int{8, 16, 32, 64, 128} {
		for _, policy := range []cachestore.Policy{cachestore.LRU, cachestore.LFU, cachestore.CostAware} {
			points = append(points, point{capacity, policy})
		}
	}
	rows := make([][]string, len(points))
	err := parallelEach(len(points), s.workers(), func(i int) error {
		p := points[i]
		stats, store, err := RunSingle(DeviceConfig{
			Name:     "main",
			Spec:     spec,
			Engine:   core.DefaultConfig(),
			Capacity: p.capacity,
			Policy:   p.policy,
			Seed:     s.Seed,
		})
		if err != nil {
			return fmt.Errorf("cap %d %v: %w", p.capacity, p.policy, err)
		}
		rows[i] = []string{
			fmt.Sprintf("%d", p.capacity),
			p.policy.String(),
			fmtPct(stats.HitRate()),
			fmtDur(stats.Latency().Mean()),
			fmt.Sprintf("%d", store.Evictions()),
		}
		return nil
	})
	if err != nil {
		return Report{}, err
	}
	report.Rows = append(report.Rows, rows...)
	return report, nil
}

// E6Energy compares per-frame energy across systems, including the
// radio tax of P2P collaboration.
func E6Energy(s Scale) (Report, error) {
	if err := s.validate(); err != nil {
		return Report{}, err
	}
	spec := trace.StationaryHeavy(s.Frames, s.Seed)
	report := Report{
		ID:      "E6",
		Title:   "Energy per frame by system (stationary-heavy)",
		Headers: []string{"system", "energy/frame (mJ)", "total (J)", "hit-rate"},
		Notes: []string{
			"energy tracks latency: avoided inferences dominate; P2P adds a small radio tax on misses",
		},
	}
	run := func(name string, cfg core.Config, peer bool) error {
		var stats *metrics.SessionStats
		if peer {
			main, err := e1Group(spec, cfg, s)
			if err != nil {
				return err
			}
			stats = main.engine.Stats()
		} else {
			var err error
			stats, _, err = RunSingle(DeviceConfig{Name: "main", Spec: spec, Engine: cfg, Seed: s.Seed})
			if err != nil {
				return err
			}
		}
		perFrame := stats.EnergyMJ() / float64(stats.Frames())
		report.Rows = append(report.Rows, []string{
			name,
			fmtF(perFrame),
			fmtF(stats.EnergyMJ() / 1000),
			fmtPct(stats.HitRate()),
		})
		return nil
	}
	if err := run("no-cache", core.Config{Mode: core.ModeNoCache, Costs: core.DefaultCostModel()}, false); err != nil {
		return Report{}, err
	}
	if err := run("exact-cache", core.Config{Mode: core.ModeExactCache, Costs: core.DefaultCostModel()}, false); err != nil {
		return Report{}, err
	}
	if err := run("approx (local)", core.DefaultConfig(), false); err != nil {
		return Report{}, err
	}
	if err := run("approx (full, 2 peers)", core.DefaultConfig(), true); err != nil {
		return Report{}, err
	}
	return report, nil
}

// E7LSHAblation grades the LSH index design: recall against exact
// search, candidate-set size, and measured lookup time.
func E7LSHAblation(s Scale) (Report, error) {
	if err := s.validate(); err != nil {
		return Report{}, err
	}
	const dim = 80
	items := s.Frames // index size scales with the experiment
	if items > 5000 {
		items = 5000
	}
	queries := 200
	rng := rand.New(rand.NewSource(s.Seed))
	// Clustered vectors: same structure the cache indexes.
	centers := make([]feature.Vector, 16)
	for i := range centers {
		centers[i] = randUnitVec(rng, dim)
	}
	makeVec := func() feature.Vector {
		c := centers[rng.Intn(len(centers))]
		v := c.Clone()
		for d := range v {
			v[d] += rng.NormFloat64() * 0.05
		}
		v.Normalize()
		return v
	}
	vecs := make([]feature.Vector, items)
	exact, err := lsh.NewExact(dim)
	if err != nil {
		return Report{}, err
	}
	for i := range vecs {
		vecs[i] = makeVec()
		if err := exact.Insert(lsh.ID(i), vecs[i]); err != nil {
			return Report{}, err
		}
	}
	qs := make([]feature.Vector, queries)
	truth := make([]lsh.ID, queries)
	for i := range qs {
		qs[i] = makeVec()
		ns, err := exact.Nearest(qs[i], 1)
		if err != nil {
			return Report{}, err
		}
		truth[i] = ns[0].ID
	}

	report := Report{
		ID:      "E7",
		Title:   "LSH design ablation (recall@1 vs exact search, clustered 80-d vectors)",
		Headers: []string{"bits", "tables", "recall@1", "mean-candidates", "lookup"},
		Notes: []string{
			"more tables recover recall lost to narrower buckets; lookup time tracks candidate volume",
		},
	}
	// This grid stays serial even when Scale.Workers allows more: the
	// lookup column is a wall-clock measurement, and concurrent sweep
	// points would contend for cores and skew it.
	for _, bits := range []int{8, 12, 16, 20} {
		for _, tables := range []int{1, 2, 4, 8} {
			idx, err := lsh.NewHyperplane(dim, bits, tables, s.Seed)
			if err != nil {
				return Report{}, err
			}
			for i, v := range vecs {
				if err := idx.Insert(lsh.ID(i), v); err != nil {
					return Report{}, err
				}
			}
			hits := 0
			var candTotal int
			start := time.Now()
			for i, q := range qs {
				cands, err := idx.Candidates(q)
				if err != nil {
					return Report{}, err
				}
				candTotal += len(cands)
				ns, err := idx.Nearest(q, 1)
				if err != nil {
					return Report{}, err
				}
				if len(ns) > 0 && ns[0].ID == truth[i] {
					hits++
				}
			}
			elapsed := time.Since(start) / time.Duration(queries)
			report.Rows = append(report.Rows, []string{
				fmt.Sprintf("%d", bits),
				fmt.Sprintf("%d", tables),
				fmtPct(float64(hits) / float64(queries)),
				fmtF(float64(candTotal) / float64(queries)),
				fmt.Sprintf("%.1fµs", float64(elapsed)/float64(time.Microsecond)),
			})
		}
	}
	return report, nil
}

// E8MotionGate sweeps the inertial gate thresholds, trading reuse rate
// against false reuse (IMU-served frames whose label was wrong).
func E8MotionGate(s Scale) (Report, error) {
	if err := s.validate(); err != nil {
		return Report{}, err
	}
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
	err := parallelEach(len(scales), s.workers(), func(i int) error {
		scale := scales[i]
		cfg := core.DefaultConfig()
		base := imu.DefaultDetectorConfig()
		cfg.IMU = imu.DetectorConfig{
			Window:            base.Window,
			AccelVarThreshold: base.AccelVarThreshold * scale,
			GyroMeanThreshold: base.GyroMeanThreshold * scale,
			MaxRotation:       base.MaxRotation * scale,
		}
		stats, _, err := RunSingle(DeviceConfig{
			Name: "main", Spec: spec, Engine: cfg, Seed: s.Seed,
		})
		if err != nil {
			return fmt.Errorf("scale %v: %w", scale, err)
		}
		counts := stats.CountBySource()
		rows[i] = []string{
			fmtF(scale),
			fmt.Sprintf("%d", counts[metrics.SourceIMU]),
			fmtPct(float64(counts[metrics.SourceIMU]) / float64(stats.Frames())),
			fmtPct(stats.HitRate()),
			fmtPct(stats.Accuracy()),
			fmtDur(stats.Latency().Mean()),
		}
		return nil
	})
	if err != nil {
		return Report{}, err
	}
	report.Rows = append(report.Rows, rows...)
	return report, nil
}

func randUnitVec(r *rand.Rand, dim int) feature.Vector {
	v := make(feature.Vector, dim)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	v.Normalize()
	return v
}
