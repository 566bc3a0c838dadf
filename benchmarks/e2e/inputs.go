package main

import (
	"fmt"
	"time"

	"approxcache/internal/dnn"
	"approxcache/internal/imu"
	"approxcache/internal/trace"
	"approxcache/internal/video"
	"approxcache/internal/vision"
)

// kind is the shape of the system a workload drives.
type kind int

const (
	// kindDevice: one camera, one cache, one goroutine.
	kindDevice kind = iota
	// kindMesh: several devices on one simulated network, frames
	// interleaved round-robin on one goroutine.
	kindMesh
	// kindPool: several sessions of one serving node, one goroutine
	// each — the only concurrent shape.
	kindPool
)

// workloadSpec sizes one workload. Sizes are frames per camera stream;
// passesPer10s is the fixed pass count of a 10-second run on the
// reference host (see README: passes scale with -seconds, never with
// the clock, so two commits always do identical work).
type workloadSpec struct {
	name string
	why  string
	kind kind
	// videoTraces selects the four standard IMU+video traces (one
	// scenario each) instead of a photo stream.
	videoTraces bool
	// streams is the camera count of a photo scenario; 0 on kindPool
	// means min(nproc, 4).
	streams int
	// warm and timed are frames per stream: warm frames run untimed on
	// the fresh cache before the timed ones.
	warm, timed int
	classes     int
	zipf        float64
	// capacity, shards and batch are the only non-default options any
	// workload sets (0 keeps the default).
	capacity, shards int
	batchPerSession  bool
	passesPer10s     float64
}

// workloads lists the five workloads in report order. Names are
// normative: BENCHMARK.json, run.sh and the README refer to them.
var workloads = []workloadSpec{
	{
		name:        "device-video",
		why:         "standard IMU+video traces: gates serve ~95% of frames, so guards, imu, video and core bookkeeping dominate",
		kind:        kindDevice,
		videoTraces: true,
		timed:       1500,
		classes:     8,
		// 4 traces x 1500 frames per pass.
		passesPer10s: 80,
	},
	{
		name:         "photo-lookup",
		why:          "independent photos, working set fits the cache: feature extraction and index/store reads dominate",
		kind:         kindDevice,
		streams:      1,
		warm:         3000,
		timed:        3000,
		classes:      128,
		capacity:     4096,
		passesPer10s: 40,
	},
	{
		name:         "photo-churn",
		why:          "working set far larger than the cache: half the frames miss, repair, insert and evict beside the reads",
		kind:         kindDevice,
		streams:      1,
		warm:         1500,
		timed:        3000,
		classes:      512,
		passesPer10s: 32,
	},
	{
		name:         "peer-mesh",
		why:          "four devices share a vocabulary over simnet: p2p codec, coalescing, gossip and the network do real work",
		kind:         kindMesh,
		streams:      4,
		timed:        1500,
		classes:      256,
		zipf:         0.8,
		passesPer10s: 28,
	},
	{
		name:            "pool-serve",
		why:             "concurrent sessions on one node with a serial accelerator model: batcher, sharding and pool sharing matter",
		kind:            kindPool,
		timed:           2500,
		classes:         128,
		capacity:        4096,
		shards:          8,
		batchPerSession: true,
		passesPer10s:    6,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// frameIn is one camera frame as the program under test receives it.
type frameIn struct {
	img *vision.Image
	// win is the IMU window since the previous frame, sliced once in
	// set-up (Workload.IMUWindow is an O(n) scan and must not sit in the
	// timed region). Nil on photo workloads.
	win   []imu.Sample
	truth string
}

// scenario is one fresh-cache session of a pass: a device, a mesh or a
// pool, with its cameras' frames and the classifier answers for them.
type scenario struct {
	name    string
	streams [][]frameIn
	// warm is how many leading frames of each stream run untimed.
	warm    int
	classes *vision.ClassSet
	// memo holds the seeded classifier's answer for every frame,
	// inferred once in processing order.
	memo *memoClassifier
	// clfSeed seeds the live classifier of a pool pass; netSeed the
	// simulated network of a mesh pass.
	clfSeed, netSeed int64
}

// timedFrames returns how many frames of the scenario are timed.
func (sc *scenario) timedFrames() int {
	n := 0
	for _, s := range sc.streams {
		n += len(s) - sc.warm
	}
	return n
}

// inputs is everything generated from -seed for one workload.
type inputs struct {
	spec      workloadSpec
	scenarios []*scenario
	// No-cache baseline over the timed frames: the memo table's own
	// answers, i.e. what ModeNoCache would serve on the same inputs.
	noCacheMeanMS   float64
	noCacheAccuracy float64
}

func (in *inputs) timedFrames() int {
	n := 0
	for _, sc := range in.scenarios {
		n += sc.timedFrames()
	}
	return n
}

// subSeed derives independent generator seeds from the run seed.
func subSeed(seed int64, k int64) int64 { return seed*1_000_003 + k }

// generate builds a workload's inputs from seed. frames > 0 overrides
// the timed frames per stream (warm-up scales with it).
func generate(spec workloadSpec, seed int64, frames int) (*inputs, error) {
	if frames > 0 {
		spec.warm = spec.warm * frames / spec.timed
		spec.timed = frames
	}
	if spec.kind == kindPool {
		spec.streams = poolSessions()
	}
	in := &inputs{spec: spec}
	var err error
	if spec.videoTraces {
		in.scenarios, err = videoScenarios(spec, seed)
	} else {
		var sc *scenario
		sc, err = photoScenario(spec, seed)
		in.scenarios = []*scenario{sc}
	}
	if err != nil {
		return nil, err
	}
	var lat time.Duration
	var correct, n int
	for _, sc := range in.scenarios {
		for _, stream := range sc.streams {
			for _, f := range stream[sc.warm:] {
				inf := sc.memo.table[f.img]
				lat += inf.Latency
				if inf.Label == f.truth {
					correct++
				}
				n++
			}
		}
	}
	in.noCacheMeanMS = float64(lat) / float64(n) / 1e6
	in.noCacheAccuracy = float64(correct) / float64(n)
	return in, nil
}

// videoScenarios renders the four standard traces, one scenario each,
// with their IMU streams sliced into per-frame windows.
func videoScenarios(spec workloadSpec, seed int64) ([]*scenario, error) {
	specs := trace.StandardSpecs(spec.timed, subSeed(seed, 1))
	out := make([]*scenario, len(specs))
	for i, ts := range specs {
		ts.NumClasses = spec.classes
		w, err := trace.Generate(ts)
		if err != nil {
			return nil, fmt.Errorf("trace %s: %w", ts.Name, err)
		}
		stream := make([]frameIn, len(w.Frames))
		// Frame j gets the samples in (offset of frame j-1, offset of
		// frame j], as Workload.IMUWindow returns them; a sample at
		// offset 0 belongs to no window, exactly as there.
		next := 0 // first IMU sample not yet handed to a frame
		for next < len(w.IMU) && w.IMU[next].Offset <= 0 {
			next++
		}
		for j, fr := range w.Frames {
			end := next
			for end < len(w.IMU) && w.IMU[end].Offset <= fr.Offset {
				end++
			}
			var win []imu.Sample
			if end > next {
				win = w.IMU[next:end:end]
			}
			next = end
			stream[j] = frameIn{img: fr.Image, win: win, truth: dnn.LabelOf(fr.Class)}
		}
		sc := &scenario{name: ts.Name, streams: [][]frameIn{stream}, classes: w.Classes}
		if sc.memo, err = buildMemo(sc, subSeed(seed, 10+int64(i))); err != nil {
			return nil, err
		}
		out[i] = sc
	}
	return out, nil
}

// photoScenario renders independent photos: every frame is a new scene
// of a class drawn from the vocabulary, with no IMU stream, so the
// inertial and video gates miss naturally and every frame reaches the
// feature/index/store path.
func photoScenario(spec workloadSpec, seed int64) (*scenario, error) {
	classes, err := vision.NewClassSet(spec.classes, 48, 48, subSeed(seed, 2))
	if err != nil {
		return nil, err
	}
	var weights []float64
	if spec.zipf > 0 {
		weights = video.ZipfWeights(spec.classes, spec.zipf)
	}
	sc := &scenario{
		name:    spec.name,
		streams: make([][]frameIn, spec.streams),
		warm:    spec.warm,
		classes: classes,
		clfSeed: subSeed(seed, 3),
		netSeed: subSeed(seed, 4),
	}
	for s := range sc.streams {
		frames, err := video.Generate(video.StreamConfig{
			FPS:          15,
			Segments:     []video.Segment{{Regime: imu.Walking, Frames: spec.warm + spec.timed}},
			Perturb:      vision.DefaultPerturbation(),
			SceneHold:    1,
			ClassWeights: weights,
			Seed:         subSeed(seed, 100+int64(s)),
		}, classes)
		if err != nil {
			return nil, fmt.Errorf("stream %d: %w", s, err)
		}
		stream := make([]frameIn, len(frames))
		for j, fr := range frames {
			stream[j] = frameIn{img: fr.Image, truth: dnn.LabelOf(fr.Class)}
		}
		sc.streams[s] = stream
	}
	if sc.memo, err = buildMemo(sc, sc.clfSeed); err != nil {
		return nil, err
	}
	return sc, nil
}
