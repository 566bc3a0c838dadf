package eval

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"approxcache/internal/admission"
	"approxcache/internal/cachestore"
	"approxcache/internal/core"
	"approxcache/internal/dnn"
	"approxcache/internal/lsh"
	"approxcache/internal/metrics"
	"approxcache/internal/simclock"
	"approxcache/internal/vision"
)

// The overload benchmark: an OPEN-LOOP arrival generator against one
// serving node, sweeping offered load from half capacity to 4×.
//
// The throughput benchmark (E20) is closed-loop: each stream waits for
// its previous frame, so offered load can never exceed service rate
// and the node never truly overloads. Real mobile clients do not wait
// — frames arrive at camera rate regardless of how far behind the
// node is. This harness therefore fires requests on a fixed schedule
// and measures GOODPUT: completions that returned a fresh-quality
// answer (not shed) within the request deadline, per second.
//
// Two node configurations run the same sweep:
//
//   - resilient: request deadlines on, AIMD admission control gating
//     the DNN fallback, bounded batcher queue. Excess load is shed
//     through the degradation ladder in microseconds, so the
//     accelerator keeps serving admitted work at capacity.
//   - unprotected: no deadlines, no admission, unbounded batcher
//     queue. Excess load piles up; every queued frame completes
//     eventually but long after its answer stopped being useful.
//
// The regression gate (cmd/benchgate -overload-json) enforces that the
// resilient node retains its goodput at the highest load multiplier:
// goodput@4× ≥ 0.85 × peak goodput across the sweep.

// Overload mode names, in report order.
const (
	OverloadResilient   = "resilient"
	OverloadUnprotected = "unprotected"
)

// OverloadModes lists the benchmark's node configurations.
func OverloadModes() []string {
	return []string{OverloadResilient, OverloadUnprotected}
}

// OverloadConfig shapes the overload benchmark.
type OverloadConfig struct {
	// Sessions is the serving pool size (default 8).
	Sessions int
	// Loads are the offered-load multipliers of measured capacity
	// (default 0.5, 1, 2, 4).
	Loads []float64
	// Window is how long each load point offers traffic (default 700ms).
	Window time.Duration
	// Deadline is the per-request budget; the resilient node enforces
	// it, and the harness judges BOTH nodes' completions against it
	// (default 80ms).
	Deadline time.Duration
	// Scale converts simulated inference latency to real accelerator
	// occupancy (default 1/5 — slower than E20's 1/15, so capacity is
	// low enough for the generator to comfortably outrun it).
	Scale float64
	// Classes is the synthetic vocabulary size (default 24).
	Classes int
	// Capacity is the node's cache capacity (default 512).
	Capacity int
	// Seed anchors all randomness.
	Seed int64
	// Profile is the model profile (default MobileNetV2).
	Profile dnn.Profile
	// Batcher is the micro-batching policy (default: 4 frames or 2ms;
	// the unprotected mode removes its pending bound).
	Batcher dnn.BatcherConfig
	// Admission is the resilient node's limiter policy (default
	// admission.DefaultConfig).
	Admission admission.Config
	// MaxReuseStreak bounds reuse before forced revalidation (default
	// 2, keeping the DNN fallback hot under load).
	MaxReuseStreak int
	// Calibration is the closed-loop capacity measurement duration
	// (default 250ms).
	Calibration time.Duration
	// DrainTimeout bounds how long a load point waits for stragglers
	// after the offered window closes; requests still in flight past it
	// are counted unfinished (default 2s).
	DrainTimeout time.Duration
}

func (c *OverloadConfig) defaults() {
	if c.Sessions == 0 {
		c.Sessions = 8
	}
	if len(c.Loads) == 0 {
		c.Loads = []float64{0.5, 1, 2, 4}
	}
	if c.Window == 0 {
		c.Window = 700 * time.Millisecond
	}
	if c.Deadline == 0 {
		c.Deadline = 80 * time.Millisecond
	}
	if c.Scale == 0 {
		c.Scale = 1.0 / 5
	}
	if c.Classes == 0 {
		c.Classes = 24
	}
	if c.Capacity == 0 {
		c.Capacity = 512
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Profile.Name == "" {
		c.Profile = dnn.MobileNetV2
	}
	if c.Batcher.MaxBatch == 0 {
		c.Batcher = dnn.BatcherConfig{MaxBatch: 4, MaxWait: 2 * time.Millisecond}
	}
	if !c.Admission.Enabled {
		c.Admission = admission.DefaultConfig()
	}
	if c.MaxReuseStreak == 0 {
		c.MaxReuseStreak = 2
	}
	if c.Calibration == 0 {
		c.Calibration = 250 * time.Millisecond
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 2 * time.Second
	}
}

// OverloadPoint is one (mode, load multiplier) measurement.
type OverloadPoint struct {
	Mode       string  `json:"mode"`
	Load       float64 `json:"load"`
	OfferedRPS float64 `json:"offered_rps"`
	Offered    int     `json:"offered"`
	Completed  int     `json:"completed"`
	// Good counts completions that returned a fresh-quality (non-shed)
	// answer within the deadline; GoodputRPS is Good over the offered
	// window.
	Good       int     `json:"good"`
	GoodputRPS float64 `json:"goodput_rps"`
	// Shed counts completions answered from the degradation ladder
	// with a typed shed marker; Errors counts typed refusals where no
	// degraded answer existed. Neither is silent loss.
	Shed   int `json:"shed"`
	Errors int `json:"errors"`
	// Unfinished counts requests still in flight when the drain
	// timeout expired — the unbounded-queue failure mode.
	Unfinished int     `json:"unfinished"`
	P50MS      float64 `json:"p50_ms"`
	P99MS      float64 `json:"p99_ms"`
	// Admission limiter state at the end of the point (resilient only).
	AdmissionLimit int    `json:"admission_limit,omitempty"`
	BrownoutLevel  string `json:"brownout_level,omitempty"`
	BrownoutRaised int64  `json:"brownout_raised,omitempty"`
	// Batcher overload counters.
	ExpiredDrops   int64 `json:"expired_drops,omitempty"`
	QueueOverflows int64 `json:"queue_overflows,omitempty"`
}

// OverloadReport is the full benchmark outcome, serialized to
// BENCH_overload.json and gated by cmd/benchgate.
type OverloadReport struct {
	Sessions    int             `json:"sessions"`
	DeadlineMS  float64         `json:"deadline_ms"`
	WindowMS    float64         `json:"window_ms"`
	CapacityRPS float64         `json:"capacity_rps"`
	Points      []OverloadPoint `json:"points"`
	// PeakGoodput is the best resilient goodput across the sweep;
	// GoodputAtMax is the resilient goodput at the highest multiplier.
	// Retention = GoodputAtMax / PeakGoodput is the gated number.
	PeakGoodput  float64 `json:"peak_goodput_rps"`
	GoodputAtMax float64 `json:"goodput_at_max_rps"`
	Retention    float64 `json:"retention"`
	// P99 at the highest multiplier for both modes — the latency
	// collapse the unprotected node exists to demonstrate.
	ResilientP99MS   float64 `json:"resilient_p99_ms"`
	UnprotectedP99MS float64 `json:"unprotected_p99_ms"`
}

// overloadNode is one freshly built serving node (every load point
// gets its own, so backlog from one point cannot pollute the next).
type overloadNode struct {
	pool    *core.Pool
	batcher *dnn.Batcher
	store   *cachestore.Store
}

func (n *overloadNode) close() {
	if n.batcher != nil {
		n.batcher.Close()
	}
}

// buildOverloadNode assembles a micro-batched serving pool over one
// store.
// The resilient mode adds request deadlines, admission control, and
// the batcher's pending bound; the unprotected mode strips all three.
func buildOverloadNode(cfg OverloadConfig, mode string, classifier *dnn.Classifier) (*overloadNode, error) {
	ecfg := throughputEngineConfig(cfg.MaxReuseStreak)
	bcfg := cfg.Batcher
	switch mode {
	case OverloadResilient:
		ecfg.RequestDeadline = cfg.Deadline
		ecfg.Admission = cfg.Admission
	case OverloadUnprotected:
		bcfg.MaxPending = -1
	default:
		return nil, fmt.Errorf("eval: unknown overload mode %q", mode)
	}
	clock := simclock.NewVirtual(time.Unix(0, 0))
	idx, err := lsh.NewHyperplane(ecfg.Extractor.Dim(), 12, 4, cfg.Seed)
	if err != nil {
		return nil, err
	}
	store, err := cachestore.New(cachestore.Config{Capacity: cfg.Capacity}, idx, clock)
	if err != nil {
		return nil, err
	}
	model := &occupiedModel{inner: classifier, scale: cfg.Scale}
	batcher, err := dnn.NewBatcher(bcfg, model)
	if err != nil {
		return nil, err
	}
	pool, err := core.NewPool(cfg.Sessions, ecfg, core.Deps{
		Clock: clock, Classifier: batcher, Store: store,
	})
	if err != nil {
		batcher.Close()
		return nil, err
	}
	return &overloadNode{pool: pool, batcher: batcher, store: store}, nil
}

// renderOverloadImages pre-renders the request population: three
// perturbed variants per class, cycled by the generator. Rendering is
// pure CPU cost that must not pollute the serving measurement.
func renderOverloadImages(cfg OverloadConfig, classes *vision.ClassSet) ([]*vision.Image, []int, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := 3 * cfg.Classes
	images := make([]*vision.Image, n)
	klass := make([]int, n)
	for i := range images {
		c := i % cfg.Classes
		im, err := classes.Render(c, vision.DefaultPerturbation(), rng)
		if err != nil {
			return nil, nil, fmt.Errorf("render image %d: %w", i, err)
		}
		images[i] = im
		klass[i] = c
	}
	return images, klass, nil
}

// warmStore seeds a node's cache with one entry per request image,
// bypassing the engine: a cold cache would make every load point start
// with a miss flood that measures warm-up, not overload behavior. The
// entries carry the true labels — exactly what a prior serving epoch
// would have cached.
func warmStore(cfg OverloadConfig, node *overloadNode, images []*vision.Image, klass []int) error {
	ex := throughputEngineConfig(cfg.MaxReuseStreak).Extractor
	for i, im := range images {
		vec, err := ex.Extract(im)
		if err != nil {
			return err
		}
		if _, err := node.store.Insert(vec, dnn.LabelOf(klass[i]), 0.9, "dnn",
			cfg.Profile.MeanLatency); err != nil {
			return err
		}
	}
	return nil
}

// calibrateCapacity measures the node's sustainable service rate with
// a CLOSED loop: cfg.Sessions streams each driving frames back to
// back, so the node is busy but never backlogged. The open-loop sweep
// offers multiples of this rate.
func calibrateCapacity(cfg OverloadConfig, classifier *dnn.Classifier, images []*vision.Image, klass []int) (float64, error) {
	node, err := buildOverloadNode(cfg, OverloadUnprotected, classifier)
	if err != nil {
		return 0, err
	}
	defer node.close()
	if err := warmStore(cfg, node, images, klass); err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	done := 0
	start := time.Now()
	until := start.Add(cfg.Calibration)
	for s := 0; s < cfg.Sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			eng := node.pool.Session(s)
			n := 0
			for i := 0; time.Now().Before(until); i++ {
				if _, err := eng.Process(images[(s*31+i)%len(images)], nil); err == nil {
					n++
				}
			}
			mu.Lock()
			done += n
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if done == 0 || elapsed <= 0 {
		return 0, fmt.Errorf("eval: capacity calibration served nothing")
	}
	return float64(done) / elapsed.Seconds(), nil
}

// overloadOutcome is one request's fate as the harness saw it.
type overloadOutcome struct {
	latency time.Duration
	source  metrics.Source
	err     error
}

// runOverloadPoint offers load×capacity req/s to a fresh node for one
// window and scores every completion against the deadline.
func runOverloadPoint(cfg OverloadConfig, mode string, load, capacity float64,
	classifier *dnn.Classifier, images []*vision.Image, klass []int) (OverloadPoint, error) {
	node, err := buildOverloadNode(cfg, mode, classifier)
	if err != nil {
		return OverloadPoint{}, err
	}
	if err := warmStore(cfg, node, images, klass); err != nil {
		node.close()
		return OverloadPoint{}, err
	}
	rate := load * capacity
	interval := time.Duration(float64(time.Second) / rate)

	var mu sync.Mutex
	var outcomes []overloadOutcome
	var wg sync.WaitGroup
	offered := 0
	start := time.Now()
	next := start
	for time.Since(start) < cfg.Window {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		// If the sleep overshot, the loop dispatches back-to-back until
		// the schedule catches up — the average rate holds.
		next = next.Add(interval)
		i := offered
		offered++
		t0 := time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eng := node.pool.Session(i % cfg.Sessions)
			res, perr := eng.Process(images[i%len(images)], nil)
			o := overloadOutcome{latency: time.Since(t0), source: res.Source, err: perr}
			mu.Lock()
			outcomes = append(outcomes, o)
			mu.Unlock()
		}(i)
	}
	window := time.Since(start)

	// Drain stragglers, bounded: an unbounded backlog (the unprotected
	// failure mode) must not stall the whole sweep. Abandoned requests
	// finish in the background against this point's private node.
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	timedOut := false
	select {
	case <-drained:
	case <-time.After(cfg.DrainTimeout):
		timedOut = true
	}
	if timedOut {
		go func() { <-drained; node.close() }()
	} else {
		node.close()
	}

	mu.Lock()
	snap := make([]overloadOutcome, len(outcomes))
	copy(snap, outcomes)
	mu.Unlock()

	pt := OverloadPoint{
		Mode:       mode,
		Load:       load,
		OfferedRPS: float64(offered) / window.Seconds(),
		Offered:    offered,
		Completed:  len(snap),
		Unfinished: offered - len(snap),
	}
	var lats []time.Duration
	for _, o := range snap {
		switch {
		case o.err != nil:
			pt.Errors++
		case o.source == metrics.SourceShed:
			pt.Shed++
			lats = append(lats, o.latency)
		default:
			lats = append(lats, o.latency)
			if o.latency <= cfg.Deadline {
				pt.Good++
			}
		}
	}
	pt.GoodputRPS = float64(pt.Good) / window.Seconds()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pt.P50MS = durPctMS(lats, 50)
	pt.P99MS = durPctMS(lats, 99)
	if snap, ok := node.pool.AdmissionSnapshot(); ok {
		pt.AdmissionLimit = snap.Limit
		pt.BrownoutLevel = snap.Level.String()
		pt.BrownoutRaised = snap.Transitions
	}
	bs := node.batcher.Stats()
	pt.ExpiredDrops = bs.ExpiredDrops
	pt.QueueOverflows = bs.Overflows
	return pt, nil
}

// durPctMS returns the p-th percentile of sorted latencies, in ms.
func durPctMS(sorted []time.Duration, p float64) float64 {
	return float64(nearestRank(sorted, p)) / float64(time.Millisecond)
}

// RunOverload measures both node configurations across the load sweep
// and computes the headline retention number.
func RunOverload(cfg OverloadConfig) (OverloadReport, error) {
	cfg.defaults()
	classes, err := vision.NewClassSet(cfg.Classes, 48, 48, cfg.Seed)
	if err != nil {
		return OverloadReport{}, err
	}
	images, klass, err := renderOverloadImages(cfg, classes)
	if err != nil {
		return OverloadReport{}, err
	}
	classifier, err := dnn.NewClassifier(cfg.Profile, classes, cfg.Seed)
	if err != nil {
		return OverloadReport{}, err
	}
	capacity, err := calibrateCapacity(cfg, classifier, images, klass)
	if err != nil {
		return OverloadReport{}, err
	}
	rep := OverloadReport{
		Sessions:    cfg.Sessions,
		DeadlineMS:  float64(cfg.Deadline) / float64(time.Millisecond),
		WindowMS:    float64(cfg.Window) / float64(time.Millisecond),
		CapacityRPS: capacity,
	}
	maxLoad := cfg.Loads[0]
	for _, l := range cfg.Loads {
		if l > maxLoad {
			maxLoad = l
		}
	}
	for _, mode := range OverloadModes() {
		for _, load := range cfg.Loads {
			pt, err := runOverloadPoint(cfg, mode, load, capacity, classifier, images, klass)
			if err != nil {
				return OverloadReport{}, fmt.Errorf("%s ×%g: %w", mode, load, err)
			}
			rep.Points = append(rep.Points, pt)
			if mode == OverloadResilient {
				if pt.GoodputRPS > rep.PeakGoodput {
					rep.PeakGoodput = pt.GoodputRPS
				}
				if pt.Load == maxLoad {
					rep.GoodputAtMax = pt.GoodputRPS
					rep.ResilientP99MS = pt.P99MS
				}
			} else if pt.Load == maxLoad {
				rep.UnprotectedP99MS = pt.P99MS
			}
		}
	}
	if rep.PeakGoodput > 0 {
		rep.Retention = rep.GoodputAtMax / rep.PeakGoodput
	}
	return rep, nil
}

// E21Overload is the overload-resilience experiment: the open-loop
// load sweep over both node configurations at a test-friendly size.
func E21Overload(scale Scale) (Report, error) {
	cfg := OverloadConfig{Seed: scale.Seed}
	if scale.Frames < DefaultScale().Frames {
		cfg.Sessions = 4
		cfg.Window = 250 * time.Millisecond
		cfg.Calibration = 150 * time.Millisecond
		cfg.DrainTimeout = time.Second
	}
	rep, err := RunOverload(cfg)
	if err != nil {
		return Report{}, err
	}
	out := Report{
		ID:    "E21",
		Title: "Overload resilience: open-loop load sweep, admission on vs off",
		Headers: []string{"node", "load", "offered/s", "goodput/s", "p50 ms",
			"p99 ms", "shed", "errors", "unfinished", "adm-limit", "brownout"},
		Data: rep,
	}
	for _, p := range rep.Points {
		limit, level := "-", "-"
		if p.AdmissionLimit > 0 {
			limit = fmt.Sprintf("%d", p.AdmissionLimit)
			level = p.BrownoutLevel
		}
		out.Rows = append(out.Rows, []string{
			p.Mode, fmt.Sprintf("%gx", p.Load), fmtF(p.OfferedRPS), fmtF(p.GoodputRPS),
			fmtF(p.P50MS), fmtF(p.P99MS), fmt.Sprintf("%d", p.Shed),
			fmt.Sprintf("%d", p.Errors), fmt.Sprintf("%d", p.Unfinished), limit, level,
		})
	}
	out.Notes = append(out.Notes,
		fmt.Sprintf("capacity %s req/s (closed-loop, %d sessions); deadline %v",
			fmtF(rep.CapacityRPS), rep.Sessions, time.Duration(rep.DeadlineMS*float64(time.Millisecond))),
		fmt.Sprintf("resilient goodput retention at max load: %.2f (gate ≥ 0.85)", rep.Retention),
		fmt.Sprintf("p99 at max load: resilient %sms vs unprotected %sms",
			fmtF(rep.ResilientP99MS), fmtF(rep.UnprotectedP99MS)),
	)
	return out, nil
}
