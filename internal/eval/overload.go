package eval

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"approxcache/internal/dnn"
	"approxcache/internal/metrics"
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
// and measures GOODPUT: completions that returned a fresh answer (the
// DNN's, or a cache or peer hit; never a shed or fallback answer from
// the degradation ladder) within the request deadline, per second.
//
// Two node configurations run the same sweep:
//
//   - resilient: request deadlines on, bounded batcher queue. A frame
//     past its deadline or refused by the queue (full, or too long for
//     the frame's deadline) is shed through
//     the degradation ladder in microseconds, and a call the deadline
//     cuts short does not trip the watchdog's breaker, so the
//     accelerator keeps taking in-deadline work.
//   - unprotected: no deadlines, unbounded batcher queue. Excess load
//     piles up; every queued frame completes eventually but long after
//     its answer stopped being useful.
//
// The regression gate (cmd/benchgate) enforces that the resilient node
// retains its goodput at the highest load multiplier: goodput@4× ≥
// 0.85 × peak goodput across the sweep.

// Overload mode names, in report order.
const (
	overloadResilient   = "resilient"
	overloadUnprotected = "unprotected"
)

const (
	// overloadDeadline is the per-request budget; the resilient node
	// enforces it, and the harness judges BOTH nodes' completions
	// against it.
	overloadDeadline = 80 * time.Millisecond
	// overloadSlowdown converts simulated inference latency to real
	// accelerator occupancy (1/5 — slower than E20's 1/15, so capacity
	// is low enough for the generator to comfortably outrun it).
	overloadSlowdown = 5
)

var (
	// overloadLoads are the offered-load multipliers of measured
	// capacity.
	overloadLoads = []float64{0.5, 1, 2, 4}
	// overloadBatcher is the micro-batching policy; the unprotected
	// mode removes its pending bound.
	overloadBatcher = dnn.BatcherConfig{MaxBatch: 4, MaxWait: 2 * time.Millisecond}
)

// OverloadPoint is one (mode, load multiplier) measurement.
type OverloadPoint struct {
	Mode       string  `json:"mode"`
	Load       float64 `json:"load"`
	OfferedRPS float64 `json:"offered_rps"`
	Offered    int     `json:"offered"`
	Completed  int     `json:"completed"`
	// Good counts completions that returned a fresh answer (neither
	// shed nor fallback) within the deadline; GoodputRPS is Good over
	// the offered window.
	Good       int     `json:"good"`
	GoodputRPS float64 `json:"goodput_rps"`
	// Shed counts completions answered from the degradation ladder
	// with a typed shed marker, Fallback those the ladder answered
	// after a failed or timed-out DNN call; Errors counts typed
	// refusals where no degraded answer existed. None is silent loss.
	Shed     int `json:"shed"`
	Fallback int `json:"fallback"`
	Errors   int `json:"errors"`
	// Unfinished counts requests still in flight when the drain
	// timeout expired — the unbounded-queue failure mode.
	Unfinished int     `json:"unfinished"`
	P50MS      float64 `json:"p50_ms"`
	P99MS      float64 `json:"p99_ms"`
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

// overloadSweep is one E21 run: the request population every node
// serves and the sweep's size, which the scale picks.
type overloadSweep struct {
	seed    int64
	classes *vision.ClassSet
	// images are three perturbed variants per class, cycled by the
	// generator; klass[i] is images[i]'s class. Rendering is pure CPU
	// cost that must not pollute the serving measurement.
	images []*vision.Image
	klass  []int
	// sessions is the serving pool size; each load point offers
	// traffic for window after a calibration-long capacity measurement,
	// and waits at most drain for stragglers (requests still in flight
	// past it are counted unfinished).
	sessions                   int
	window, calibration, drain time.Duration
}

func newOverloadSweep(s Scale) *overloadSweep {
	sw := &overloadSweep{seed: s.Seed, sessions: 8,
		window: 700 * time.Millisecond, calibration: 250 * time.Millisecond, drain: 2 * time.Second}
	if s.small() {
		sw.sessions, sw.window, sw.calibration, sw.drain = 4, 250*time.Millisecond, 150*time.Millisecond, time.Second
	}
	sw.classes = must(vision.NewClassSet(servingClasses, 48, 48, s.Seed))
	rng := rand.New(rand.NewSource(s.Seed))
	for i := 0; i < 3*servingClasses; i++ {
		c := i % servingClasses
		sw.images = append(sw.images, must(sw.classes.Render(c, vision.DefaultPerturbation(), rng)))
		sw.klass = append(sw.klass, c)
	}
	return sw
}

// node builds a fresh micro-batched serving node (every load point gets
// its own, so backlog from one point cannot pollute the next) and warms
// its cache with one entry per request image, bypassing the engine: a
// cold cache would make every load point start with a miss flood that
// measures warm-up, not overload behavior. The entries carry the true
// labels — exactly what a prior serving epoch would have cached. The
// resilient node adds request deadlines and keeps the batcher's
// pending bound; the unprotected node strips both.
func (sw *overloadSweep) node(resilient bool) (*device, *dnn.Batcher) {
	ecfg := servingEngineConfig()
	bcfg := overloadBatcher
	if resilient {
		ecfg.RequestDeadline = overloadDeadline
	} else {
		bcfg.MaxPending = -1
	}
	node, batcher := servingNode(sw.classes, sw.sessions, ecfg, overloadSlowdown, bcfg, sw.seed)
	for i, im := range sw.images {
		must(node.store.Insert(must(ecfg.Extractor.Extract(im)), dnn.LabelOf(sw.klass[i]), 0.9, "dnn", dnn.MobileNetV2.MeanLatency))
	}
	return node, batcher
}

// calibrate measures the node's sustainable service rate with a CLOSED
// loop: every session drives frames back to back, so the node is busy
// but never backlogged. The open-loop sweep offers multiples of this
// rate.
func (sw *overloadSweep) calibrate() float64 {
	node, batcher := sw.node(false)
	defer batcher.Close()
	var wg sync.WaitGroup
	var mu sync.Mutex
	done := 0
	start := time.Now()
	until := start.Add(sw.calibration)
	for s := 0; s < sw.sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			eng := node.pool.Session(s)
			n := 0
			for i := 0; time.Now().Before(until); i++ {
				if _, err := eng.Process(sw.images[(s*31+i)%len(sw.images)], nil); err == nil {
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
		panic("eval: capacity calibration served nothing")
	}
	return float64(done) / elapsed.Seconds()
}

// overloadOutcome is one request's fate as the harness saw it.
type overloadOutcome struct {
	latency time.Duration
	source  metrics.Source
	err     error
}

// point offers load×capacity req/s to a fresh node for one window and
// scores every completion against the deadline.
func (sw *overloadSweep) point(resilient bool, load, capacity float64) OverloadPoint {
	node, batcher := sw.node(resilient)
	interval := time.Duration(float64(time.Second) / (load * capacity))

	var mu sync.Mutex
	var outcomes []overloadOutcome
	var wg sync.WaitGroup
	offered := 0
	start := time.Now()
	next := start
	for time.Since(start) < sw.window {
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
			res, perr := node.pool.Session(i%sw.sessions).Process(sw.images[i%len(sw.images)], nil)
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
	select {
	case <-drained:
		batcher.Close()
	case <-time.After(sw.drain):
		go func() { <-drained; batcher.Close() }()
	}

	mu.Lock()
	snap := make([]overloadOutcome, len(outcomes))
	copy(snap, outcomes)
	mu.Unlock()

	pt := OverloadPoint{
		Mode:       overloadUnprotected,
		Load:       load,
		OfferedRPS: float64(offered) / window.Seconds(),
		Offered:    offered,
		Completed:  len(snap),
		Unfinished: offered - len(snap),
	}
	if resilient {
		pt.Mode = overloadResilient
	}
	pt.tally(snap, window)
	bs := batcher.Stats()
	pt.ExpiredDrops = bs.ExpiredDrops
	pt.QueueOverflows = bs.Overflows
	return pt
}

// tally scores a point's completions: errors, sheds and fallbacks by
// count, good answers by the deadline, and p50/p99 over every answer.
func (pt *OverloadPoint) tally(outcomes []overloadOutcome, window time.Duration) {
	var lats []time.Duration
	for _, o := range outcomes {
		if o.err != nil {
			pt.Errors++
			continue
		}
		lats = append(lats, o.latency)
		switch {
		case o.source == metrics.SourceShed:
			pt.Shed++
		case o.source == metrics.SourceFallback:
			pt.Fallback++
		case o.latency <= overloadDeadline:
			pt.Good++
		}
	}
	pt.GoodputRPS = float64(pt.Good) / window.Seconds()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pt.P50MS = durPctMS(lats, 50)
	pt.P99MS = durPctMS(lats, 99)
}

// runOverload measures both node configurations across the load sweep
// at scale s and computes the headline retention number.
func runOverload(s Scale) OverloadReport {
	sw := newOverloadSweep(s)
	capacity := sw.calibrate()
	rep := OverloadReport{
		Sessions:    sw.sessions,
		DeadlineMS:  float64(overloadDeadline) / float64(time.Millisecond),
		WindowMS:    float64(sw.window) / float64(time.Millisecond),
		CapacityRPS: capacity,
	}
	maxLoad := overloadLoads[len(overloadLoads)-1]
	for _, resilient := range []bool{true, false} {
		for _, load := range overloadLoads {
			pt := sw.point(resilient, load, capacity)
			rep.Points = append(rep.Points, pt)
			if resilient {
				rep.PeakGoodput = max(rep.PeakGoodput, pt.GoodputRPS)
				if load == maxLoad {
					rep.GoodputAtMax = pt.GoodputRPS
					rep.ResilientP99MS = pt.P99MS
				}
			} else if load == maxLoad {
				rep.UnprotectedP99MS = pt.P99MS
			}
		}
	}
	if rep.PeakGoodput > 0 {
		rep.Retention = rep.GoodputAtMax / rep.PeakGoodput
	}
	return rep
}

// E21Overload is the overload-resilience experiment: the open-loop
// load sweep over both node configurations, at a test-friendly size
// when scaled down.
func E21Overload(s Scale) Report {
	rep := runOverload(s)
	out := Report{
		ID:    "E21",
		Title: "Overload resilience: open-loop load sweep, deadlines and a bounded queue on vs off",
		Headers: []string{"node", "load", "offered/s", "goodput/s", "p50 ms",
			"p99 ms", "shed", "fallback", "errors", "unfinished"},
		Data: rep,
	}
	for _, p := range rep.Points {
		out.Rows = append(out.Rows, []string{
			p.Mode, fmt.Sprintf("%gx", p.Load), fmtF(p.OfferedRPS), fmtF(p.GoodputRPS),
			fmtF(p.P50MS), fmtF(p.P99MS), fmt.Sprintf("%d", p.Shed), fmt.Sprintf("%d", p.Fallback),
			fmt.Sprintf("%d", p.Errors), fmt.Sprintf("%d", p.Unfinished),
		})
	}
	out.Notes = append(out.Notes,
		fmt.Sprintf("capacity %s req/s (closed-loop, %d sessions); deadline %v",
			fmtF(rep.CapacityRPS), rep.Sessions, time.Duration(rep.DeadlineMS*float64(time.Millisecond))),
		fmt.Sprintf("resilient goodput retention at max load: %.2f (gate ≥ 0.85)", rep.Retention),
		fmt.Sprintf("p99 at max load: resilient %sms vs unprotected %sms",
			fmtF(rep.ResilientP99MS), fmtF(rep.UnprotectedP99MS)),
	)
	return out
}
