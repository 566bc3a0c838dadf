package eval

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/core"
	"approxcache/internal/dnn"
	"approxcache/internal/metrics"
	"approxcache/internal/simclock"
	"approxcache/internal/vision"
)

// The saturation benchmark: M concurrent synthetic client streams
// against one serving node — one store shared by a pool of sessions —
// with and without micro-batched inference.
//
// Most of this package replays workloads on a virtual clock, where
// lock contention is invisible. Throughput under concurrency is a
// wall-clock property, so this harness inverts the usual setup: the
// engine still charges simulated costs to a virtual clock (instantly),
// but the classifier is wrapped in an accelerator occupancy model — a
// mutex held while REALLY sleeping a scaled-down share of the model's
// simulated latency. One invocation at a time, like a physical NPU.
// Unbatched, concurrent misses queue on the accelerator one by one;
// micro-batching amortizes its occupancy across them (one fixed
// invocation cost per batch instead of per frame). The measured
// frames/sec ordering reflects the mechanism, not CPU-count luck, so it
// holds on a single-core CI box.

// Throughput mode names, in report order.
const (
	modePool        = "pool"
	modePoolBatched = "pool-batched"
)

// The serving node both serving benchmarks (E20, E21) build.
const (
	// servingClasses is the synthetic vocabulary size.
	servingClasses = 24
	// servingCapacity is the node's cache: LRU, a zero store policy.
	servingCapacity = 512
	// servingStreak bounds reuse before forced revalidation. 2 keeps
	// the DNN hot — these are saturation benchmarks of the serving
	// layer, not best-case hit-rate demos.
	servingStreak = 2
)

// throughputSlowdown converts simulated inference latency to real
// accelerator occupancy: an invocation occupies the accelerator for
// 1/throughputSlowdown of its simulated latency (a 120 ms simulated
// inference, 8 ms).
const throughputSlowdown = 15

// throughputBatcher is the batched mode's micro-batching policy.
var throughputBatcher = dnn.BatcherConfig{MaxBatch: 16, MaxWait: 5 * time.Millisecond}

// ThroughputResult is one architecture variant's measurement.
type ThroughputResult struct {
	Mode      string  `json:"mode"`
	Frames    int     `json:"frames"`
	WallMS    float64 `json:"wall_ms"`
	FPS       float64 `json:"fps"`
	P50MS     float64 `json:"p50_ms"`
	P95MS     float64 `json:"p95_ms"`
	P99MS     float64 `json:"p99_ms"`
	DNNFrames int     `json:"dnn_frames"`
	HitRate   float64 `json:"hit_rate"`
	// Batcher carries scheduler counters (batched mode only).
	Batcher *metrics.BatcherStats `json:"batcher,omitempty"`
}

// ThroughputReport is the full benchmark outcome, serialized to
// BENCH_throughput.json and gated by cmd/benchgate.
type ThroughputReport struct {
	Streams  int                `json:"streams"`
	Frames   int                `json:"frames_per_stream"`
	MaxBatch int                `json:"max_batch"`
	Results  []ThroughputResult `json:"results"`
	// Speedup is batched frames/sec over unbatched frames/sec — the
	// number the regression gate enforces.
	Speedup float64 `json:"speedup"`
}

// throughputShape is the streams × frames-per-stream E20 runs at s:
// 16 × 30, or 8 × 12 at a small scale.
func throughputShape(s Scale) (streams, frames int) {
	if s.small() {
		return 8, 12
	}
	return 16, 30
}

// streamWorkload is one stream's pre-rendered frames (rendering is
// pure CPU cost that would otherwise pollute the serving measurement).
type streamWorkload struct {
	images []*vision.Image
	truths []string
}

func renderStreams(seed int64, streams, frames int, classes *vision.ClassSet) ([]streamWorkload, error) {
	out := make([]streamWorkload, streams)
	for s := range out {
		rng := rand.New(rand.NewSource(seed + int64(s)*7919))
		out[s].images = make([]*vision.Image, frames)
		out[s].truths = make([]string, frames)
		for i := 0; i < frames; i++ {
			class := (s + i) % classes.NumClasses()
			im, err := classes.Render(class, vision.DefaultPerturbation(), rng)
			if err != nil {
				return nil, fmt.Errorf("render stream %d frame %d: %w", s, i, err)
			}
			out[s].images[i] = im
			out[s].truths[i] = dnn.LabelOf(class)
		}
	}
	return out, nil
}

// occupiedModel models a serial accelerator: one invocation at a time,
// really occupying it for 1/slowdown of the simulated latency. Batched
// invocations occupy it once for the whole batch — the amortization
// micro-batching exists to exploit.
type occupiedModel struct {
	inner    *dnn.Classifier
	slowdown int
	mu       sync.Mutex
}

func (m *occupiedModel) Profile() dnn.Profile { return m.inner.Profile() }

func (m *occupiedModel) Infer(im *vision.Image) (dnn.Inference, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	inf, err := m.inner.Infer(im)
	if err != nil {
		return inf, err
	}
	time.Sleep(inf.Latency / time.Duration(m.slowdown))
	return inf, nil
}

func (m *occupiedModel) InferBatch(ims []*vision.Image) ([]dnn.Inference, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	infs, err := m.inner.InferBatch(ims)
	if err != nil {
		return nil, err
	}
	var occupancy time.Duration
	for _, inf := range infs {
		occupancy += inf.Latency // per-frame amortized shares sum to the batch cost
	}
	time.Sleep(occupancy / time.Duration(m.slowdown))
	return infs, nil
}

// servingEngineConfig is the serving-node pipeline: gates that reason
// about one camera's motion are off (streams here are independent
// synthetic clients), so every frame exercises the cache lookup and,
// on a miss, the classifier — the two layers under test.
func servingEngineConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.DisableIMUGate = true
	cfg.DisableVideoGate = true
	cfg.DisableSensorGuards = true
	cfg.MaxReuseStreak = servingStreak
	return cfg
}

// servingNode builds a serving node of n sessions sharing one store and
// one classifier behind the accelerator occupancy model, micro-batched
// by bcfg unless it is the zero value. The caller closes the returned
// batcher.
func servingNode(classes *vision.ClassSet, n int, ecfg core.Config, slowdown int, bcfg dnn.BatcherConfig, seed int64) (*device, *dnn.Batcher, error) {
	var batcher *dnn.Batcher
	node, err := buildDevice(deviceConfig{
		Name: "node", Classes: classes, Sessions: n, Engine: ecfg,
		Store: cachestore.Config{Capacity: servingCapacity}, Seed: seed,
		WrapClassifier: func(c *dnn.Classifier) (core.Classifier, error) {
			model := &occupiedModel{inner: c, slowdown: slowdown}
			if bcfg == (dnn.BatcherConfig{}) {
				return model, nil
			}
			var err error
			batcher, err = dnn.NewBatcher(bcfg, model)
			return batcher, err
		},
	}, simclock.NewVirtual(time.Unix(0, 0)), nil)
	if err != nil {
		if batcher != nil {
			batcher.Close()
		}
		return nil, nil, err
	}
	return node, batcher, nil
}

// runThroughputMode measures one variant at scale s.
func runThroughputMode(s Scale, mode string) (ThroughputResult, error) {
	var bcfg dnn.BatcherConfig
	switch mode {
	case modePool:
	case modePoolBatched:
		bcfg = throughputBatcher
	default:
		return ThroughputResult{}, fmt.Errorf("eval: unknown throughput mode %q", mode)
	}
	streams, frames := throughputShape(s)
	classes, err := vision.NewClassSet(servingClasses, 48, 48, s.Seed)
	if err != nil {
		return ThroughputResult{}, err
	}
	work, err := renderStreams(s.Seed, streams, frames, classes)
	if err != nil {
		return ThroughputResult{}, err
	}
	node, batcher, err := servingNode(classes, streams, servingEngineConfig(), throughputSlowdown, bcfg, s.Seed)
	if err != nil {
		return ThroughputResult{}, err
	}
	if batcher != nil {
		defer batcher.Close()
	}

	// Drive all streams concurrently, recording per-frame wall time.
	perStream := make([][]time.Duration, streams)
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	start := time.Now()
	for st := 0; st < streams; st++ {
		wg.Add(1)
		go func(st int) {
			defer wg.Done()
			lat := make([]time.Duration, 0, frames)
			eng := node.pool.Session(st)
			w := work[st]
			for i := 0; i < frames; i++ {
				t0 := time.Now()
				if _, err := eng.ProcessWithTruth(w.images[i], nil, w.truths[i]); err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("stream %d frame %d: %w", st, i, err) })
					return
				}
				lat = append(lat, time.Since(t0))
			}
			perStream[st] = lat
		}(st)
	}
	wg.Wait()
	wall := time.Since(start)
	if firstErr != nil {
		return ThroughputResult{}, firstErr
	}

	var all []time.Duration
	for _, lat := range perStream {
		all = append(all, lat...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	stats := node.pool.Stats()
	res := ThroughputResult{
		Mode:      mode,
		Frames:    len(all),
		WallMS:    float64(wall) / float64(time.Millisecond),
		FPS:       float64(len(all)) / wall.Seconds(),
		P50MS:     durPctMS(all, 50),
		P95MS:     durPctMS(all, 95),
		P99MS:     durPctMS(all, 99),
		DNNFrames: stats.CountBySource()[metrics.SourceDNN],
		HitRate:   stats.HitRate(),
	}
	if batcher != nil {
		st := batcher.Stats()
		res.Batcher = &st
	}
	return res, nil
}

// runThroughput measures both variants at scale s and computes the
// headline speedup (batched over unbatched).
func runThroughput(s Scale) (ThroughputReport, error) {
	rep := ThroughputReport{MaxBatch: throughputBatcher.MaxBatch}
	rep.Streams, rep.Frames = throughputShape(s)
	for _, mode := range []string{modePool, modePoolBatched} {
		res, err := runThroughputMode(s, mode)
		if err != nil {
			return ThroughputReport{}, fmt.Errorf("mode %s: %w", mode, err)
		}
		rep.Results = append(rep.Results, res)
	}
	if base := rep.Results[0].FPS; base > 0 {
		rep.Speedup = rep.Results[1].FPS / base
	}
	return rep, nil
}

// durPctMS returns the p-th percentile of sorted latencies, in ms.
func durPctMS(sorted []time.Duration, p float64) float64 {
	return float64(nearestRank(sorted, p)) / float64(time.Millisecond)
}

// E20Throughput is the serving-scale experiment: one pool, unbatched
// and micro-batched, at a test-friendly size when scaled down.
func E20Throughput(s Scale) (Report, error) {
	rep, err := runThroughput(s)
	if err != nil {
		return Report{}, err
	}
	out := Report{
		ID:    "E20",
		Title: "Serving throughput: one pool, unbatched vs micro-batched",
		Headers: []string{"variant", "frames/sec", "p50 ms", "p95 ms",
			"p99 ms", "dnn frames", "hit-rate", "avg batch"},
		Data: rep,
	}
	for _, r := range rep.Results {
		avgBatch := "-"
		if r.Batcher != nil {
			avgBatch = fmtF(r.Batcher.AvgSize())
		}
		out.Rows = append(out.Rows, []string{
			r.Mode, fmtF(r.FPS), fmtF(r.P50MS), fmtF(r.P95MS), fmtF(r.P99MS),
			fmt.Sprintf("%d", r.DNNFrames), fmtPct(r.HitRate), avgBatch,
		})
	}
	out.Notes = append(out.Notes,
		fmt.Sprintf("%d streams × %d frames; accelerator occupancy model (serial, scaled 1/%d)",
			rep.Streams, rep.Frames, throughputSlowdown),
		fmt.Sprintf("speedup batched vs unbatched: %.2fx", rep.Speedup),
	)
	return out, nil
}
