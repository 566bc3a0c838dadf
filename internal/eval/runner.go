package eval

import (
	"fmt"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/core"
	"approxcache/internal/dnn"
	"approxcache/internal/imu"
	"approxcache/internal/lsh"
	"approxcache/internal/p2p"
	"approxcache/internal/simclock"
	"approxcache/internal/simnet"
	"approxcache/internal/trace"
	"approxcache/internal/vision"
)

// deviceConfig describes one simulated node: a device replaying a
// workload, or a serving node whose sessions share one store.
type deviceConfig struct {
	// Name identifies the device (and its network node).
	Name string
	// Spec is the device's workload; its classes are the classifier's
	// vocabulary.
	Spec trace.Spec
	// Classes, when set, is the vocabulary of a node with no workload of
	// its own (the serving benchmarks drive it from pre-rendered
	// frames); Spec is then unused.
	Classes *vision.ClassSet
	// Sessions is how many engines share the node's store and
	// classifier (default 1).
	Sessions int
	// Engine is the pipeline configuration.
	Engine core.Config
	// Store shapes the cache. The zero value selects the device default
	// (256 entries, cost-aware eviction); any other value is used
	// verbatim, so a zero Policy there is LRU, as in cachestore.
	Store cachestore.Config
	// Profile is the device's DNN profile.
	Profile dnn.Profile
	// Seed drives the device's classifier and LSH index.
	Seed int64
	// Client, when non-nil, overrides the peer-client configuration
	// (E18's unguarded run turns the breaker off). The clock is always
	// bound to the run's virtual clock regardless.
	Client *p2p.ClientConfig
	// WrapClassifier, when non-nil, wraps the device's classifier
	// before the engine sees it — the hook that interposes a
	// dnn.FaultyClassifier, an accelerator model or a batcher.
	WrapClassifier func(*dnn.Classifier) core.Classifier
}

// defaults fills zero fields.
func (d *deviceConfig) defaults() {
	if d.Sessions == 0 {
		d.Sessions = 1
	}
	if d.Store == (cachestore.Config{}) {
		d.Store = cachestore.Config{Capacity: 256, Policy: cachestore.CostAware}
	}
	if d.Profile.Name == "" {
		d.Profile = dnn.MobileNetV2
	}
	if d.Seed == 0 {
		d.Seed = 1
	}
}

// device is one instantiated node plus its workload.
type device struct {
	name   string
	clock  *simclock.Virtual
	pool   *core.Pool
	engine *core.Engine // the pool's first session
	work   *trace.Workload
	store  *cachestore.Store
	client *p2p.Client
	prev   time.Duration
	next   int // next frame index
	// lat holds every served frame's latency, for the tables that
	// print exact percentiles.
	lat exactRecorder
}

// must returns v, and panics with err if the call that produced them
// failed. Every call eval makes that returns an error goes through must
// (or check), because none of them can fail on the input eval gives
// it: the shapes, configs and link profiles are constants or built from
// DefaultConfig, the workloads are the standard specs at a frame count
// RunExperiments has accepted, every frame is rendered 48 × 48, every
// vector has its index's dimension, every node name is unique on its
// network and every classifier is healthy unless a fault hook says
// otherwise (and that hook sees the error). A panic here is a bug in
// eval, never bad input: input is refused before any experiment starts.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// check is must for a call that returns only an error.
func check(err error) { must(0, err) }

// buildDevice instantiates cfg on clock, optionally attached to net. It
// is the only place that builds an index, store, classifier and engine.
func buildDevice(cfg deviceConfig, clock *simclock.Virtual, net *simnet.Network) *device {
	cfg.defaults()
	dev := &device{name: cfg.Name, clock: clock}
	classes := cfg.Classes
	if classes == nil {
		dev.work = must(trace.Generate(cfg.Spec))
		classes = dev.work.Classes
	}
	classifier := must(dnn.NewClassifier(cfg.Profile, classes, cfg.Seed))
	if cfg.Engine.Mode == core.ModeApprox {
		idx := must(lsh.NewShipped(cfg.Engine.Extractor.Dim(), cfg.Seed))
		dev.store = must(cachestore.New(cfg.Store, idx, clock))
		if net != nil {
			ccfg := p2p.DefaultClientConfig()
			if cfg.Client != nil {
				ccfg = *cfg.Client
			}
			// Breaker backoffs must elapse in the run's virtual time, or
			// circuits would (nondeterministically) heal on the wall
			// clock instead.
			ccfg.Clock = clock
			dev.client = must(p2p.JoinSimnet(net, cfg.Name, dev.store, ccfg))
		}
	}
	var rec core.Classifier = classifier
	if cfg.WrapClassifier != nil {
		rec = cfg.WrapClassifier(classifier)
	}
	dev.pool = must(core.NewPool(cfg.Sessions, cfg.Engine, core.Deps{
		Clock:      clock,
		Classifier: rec,
		Store:      dev.store,
		Peers:      dev.client,
	}))
	dev.engine = dev.pool.Session(0)
	return dev
}

// frameInput is one frame's engine inputs, which a before hook may
// rewrite.
type frameInput struct {
	im    *vision.Image
	win   []imu.Sample
	truth string
}

// hooks customise a replay frame by frame; every field is optional.
type hooks struct {
	// pin sets the clock to each frame's arrival offset (from where the
	// replay started) before the frame, so time-based policy — peer
	// answer TTLs, breaker cooldowns, fault schedules — runs on the real
	// frame timeline, not the compressed sum of latencies.
	pin bool
	// before runs ahead of frame i and may rewrite its inputs: corrupt
	// the image or IMU window, relabel the truth, toggle a fault.
	before func(i int, in *frameInput)
	// after sees frame i's inputs and outcome, frame error included,
	// which it must check unless the run expects it. Without an after
	// hook, a frame error is a bug (see must).
	after func(i int, in *frameInput, res core.Result, err error)
}

// step feeds the device's next frame to its engine. It is the only code
// that does.
func (d *device) step(h hooks) {
	i := d.next
	fr := d.work.Frames[i]
	in := frameInput{im: fr.Image, win: d.work.IMUWindow(d.prev, fr.Offset), truth: dnn.LabelOf(fr.Class)}
	d.prev = fr.Offset
	d.next++
	if h.before != nil {
		h.before(i, &in)
	}
	res, err := d.engine.ProcessWithTruth(in.im, in.win, in.truth)
	if err == nil {
		d.lat.record(res.Latency)
	}
	if h.after != nil {
		h.after(i, &in, res, err)
	} else {
		check(err)
	}
}

// replay steps the device through the rest of its workload.
func (d *device) replay(h hooks) {
	start := d.clock.Now()
	for d.next < len(d.work.Frames) {
		if h.pin {
			d.clock.Set(start.Add(d.work.Frames[d.next].Offset))
		}
		d.step(h)
	}
}

// runSingle replays one device's workload to completion on a fresh
// clock and returns the finished device.
func runSingle(cfg deviceConfig) *device {
	dev := buildDevice(cfg, simclock.NewVirtual(time.Unix(0, 0)), nil)
	dev.replay(hooks{})
	return dev
}

// runGroup replays several devices on one shared simulated network,
// interleaving frames in timestamp order so gossip and queries happen
// causally, and returns the finished devices in cfgs order.
//
// Every device must run in approx mode, which gives it a store and a peer
// client. Every spec should share a ClassSeed so the devices recognize
// the same object vocabulary; otherwise peers can never help each other.
func runGroup(cfgs []deviceConfig, netSeed int64, link simnet.LinkProfile) []*device {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	net := must(simnet.New(link, netSeed))
	devices := make([]*device, len(cfgs))
	for i, cfg := range cfgs {
		devices[i] = buildDevice(cfg, clock, net)
	}
	// Full mesh: every device peers with all the others.
	for i, dev := range devices {
		var others []string
		for j, other := range devices {
			if j != i {
				others = append(others, other.name)
			}
		}
		dev.client.SetPeers(others)
	}

	// Interleave frames globally by offset so the simulation is
	// causal: a device that sees a scene first shares it before a
	// later device asks.
	for {
		best := -1
		var bestOff time.Duration
		for i, dev := range devices {
			if dev.next >= len(dev.work.Frames) {
				continue
			}
			off := dev.work.Frames[dev.next].Offset
			if best == -1 || off < bestOff || (off == bestOff && dev.name < devices[best].name) {
				best, bestOff = i, off
			}
		}
		if best == -1 {
			return devices
		}
		devices[best].step(hooks{})
	}
}

// crowd returns the config of a device named "main" replaying spec,
// followed by n helpers sharing its vocabulary (classSeed and spec's
// class skew): helper i replays helper(i) as name-i with device seed
// s.Seed+seedOff+i.
func crowd(spec trace.Spec, classSeed int64, n int, name string, helper func(i int) trace.Spec, engine core.Config, s Scale, seedOff int64) []deviceConfig {
	spec.ClassSeed = classSeed
	cfgs := []deviceConfig{{Name: "main", Spec: spec, Engine: engine, Seed: s.Seed}}
	for i := 0; i < n; i++ {
		h := helper(i)
		h.Name = fmt.Sprintf("%s-%d", name, i)
		h.ClassSeed, h.ClassSkew = classSeed, spec.ClassSkew
		cfgs = append(cfgs, deviceConfig{Name: h.Name, Spec: h, Engine: engine, Seed: s.Seed + seedOff + int64(i)})
	}
	return cfgs
}
