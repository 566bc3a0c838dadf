package eval

import (
	"fmt"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/core"
	"approxcache/internal/dnn"
	"approxcache/internal/imu"
	"approxcache/internal/lsh"
	"approxcache/internal/metrics"
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
	WrapClassifier func(*dnn.Classifier) (core.Classifier, error)
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

// buildDevice instantiates cfg on clock, optionally attached to net. It
// is the only place that builds an index, store, classifier and engine.
func buildDevice(cfg deviceConfig, clock *simclock.Virtual, net *simnet.Network) (*device, error) {
	cfg.defaults()
	dev := &device{name: cfg.Name, clock: clock}
	classes := cfg.Classes
	if classes == nil {
		w, err := trace.Generate(cfg.Spec)
		if err != nil {
			return nil, fmt.Errorf("device %s workload: %w", cfg.Name, err)
		}
		dev.work, classes = w, w.Classes
	}
	classifier, err := dnn.NewClassifier(cfg.Profile, classes, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("device %s classifier: %w", cfg.Name, err)
	}
	if cfg.Engine.Mode == core.ModeApprox {
		idx, err := lsh.NewHyperplane(cfg.Engine.Extractor.Dim(), 12, 4, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("device %s index: %w", cfg.Name, err)
		}
		if dev.store, err = cachestore.New(cfg.Store, idx, clock); err != nil {
			return nil, fmt.Errorf("device %s store: %w", cfg.Name, err)
		}
		if net != nil {
			if dev.client, err = joinNetwork(cfg, dev.store, clock, net); err != nil {
				return nil, fmt.Errorf("device %s: %w", cfg.Name, err)
			}
		}
	}
	var rec core.Classifier = classifier
	if cfg.WrapClassifier != nil {
		if rec, err = cfg.WrapClassifier(classifier); err != nil {
			return nil, fmt.Errorf("device %s classifier: %w", cfg.Name, err)
		}
	}
	dev.pool, err = core.NewPool(cfg.Sessions, cfg.Engine, core.Deps{
		Clock:      clock,
		Classifier: rec,
		Store:      dev.store,
		Peers:      dev.client,
	})
	if err != nil {
		return nil, fmt.Errorf("device %s engine: %w", cfg.Name, err)
	}
	dev.engine = dev.pool.Session(0)
	return dev, nil
}

// joinNetwork serves store to net under the device's name and returns
// the device's own peer client.
func joinNetwork(cfg deviceConfig, store *cachestore.Store, clock simclock.Clock, net *simnet.Network) (*p2p.Client, error) {
	svc, err := p2p.NewService(p2p.DefaultServiceConfig(cfg.Name), store)
	if err != nil {
		return nil, err
	}
	if err := p2p.RegisterService(net, svc); err != nil {
		return nil, err
	}
	ccfg := p2p.DefaultClientConfig()
	if cfg.Client != nil {
		ccfg = *cfg.Client
	}
	// Breaker backoffs must elapse in the run's virtual time, or
	// circuits would (nondeterministically) heal on the wall clock
	// instead.
	ccfg.Clock = clock
	return dial(cfg.Name, net, ccfg)
}

// dial returns a peer client that reaches net as node name.
func dial(name string, net *simnet.Network, ccfg p2p.ClientConfig) (*p2p.Client, error) {
	tr, err := p2p.NewSimnetTransport(name, net)
	if err != nil {
		return nil, err
	}
	return p2p.NewClient(ccfg, tr)
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
	// replay started) before the frame, so time-based policy — gate
	// TTLs, breaker cooldowns, fault schedules — runs on the real frame
	// timeline, not the compressed sum of latencies.
	pin bool
	// before runs ahead of frame i and may rewrite its inputs: corrupt
	// the image or IMU window, relabel the truth, toggle a fault. An
	// error it returns stops the replay.
	before func(i int, in *frameInput) error
	// after sees frame i's inputs and outcome. A frame error stops the
	// replay unless after returns nil for it.
	after func(i int, in *frameInput, res core.Result, err error) error
}

// step feeds the device's next frame to its engine. It is the only code
// that does.
func (d *device) step(h hooks) error {
	i := d.next
	fr := d.work.Frames[i]
	in := frameInput{im: fr.Image, win: d.work.IMUWindow(d.prev, fr.Offset), truth: dnn.LabelOf(fr.Class)}
	d.prev = fr.Offset
	d.next++
	if h.before != nil {
		if err := h.before(i, &in); err != nil {
			return err
		}
	}
	res, err := d.engine.ProcessWithTruth(in.im, in.win, in.truth)
	if err != nil {
		err = fmt.Errorf("device %s frame %d: %w", d.name, fr.Index, err)
	} else {
		d.lat.record(res.Latency)
	}
	if h.after != nil {
		return h.after(i, &in, res, err)
	}
	return err
}

// replay steps the device through the rest of its workload.
func (d *device) replay(h hooks) error {
	start := d.clock.Now()
	for d.next < len(d.work.Frames) {
		if h.pin {
			d.clock.Set(start.Add(d.work.Frames[d.next].Offset))
		}
		if err := d.step(h); err != nil {
			return err
		}
	}
	return nil
}

// runSingle replays one device's workload to completion on a fresh
// clock and returns the finished device.
func runSingle(cfg deviceConfig) (*device, error) {
	dev, err := buildDevice(cfg, simclock.NewVirtual(time.Unix(0, 0)), nil)
	if err != nil {
		return nil, err
	}
	return dev, dev.replay(hooks{})
}

// runGroup replays several devices on one shared simulated network,
// interleaving frames in timestamp order so gossip and queries happen
// causally, and returns the finished devices in cfgs order.
//
// Every spec should share a ClassSeed so the devices recognize the same
// object vocabulary; otherwise peers can never help each other.
func runGroup(cfgs []deviceConfig, netSeed int64, link simnet.LinkProfile) ([]*device, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("eval: empty device group")
	}
	clock := simclock.NewVirtual(time.Unix(0, 0))
	net, err := simnet.New(link, netSeed)
	if err != nil {
		return nil, err
	}
	devices := make([]*device, 0, len(cfgs))
	for _, cfg := range cfgs {
		dev, err := buildDevice(cfg, clock, net)
		if err != nil {
			return nil, err
		}
		devices = append(devices, dev)
	}
	// Full mesh: every device peers with all the others.
	for i, dev := range devices {
		if dev.client == nil {
			continue
		}
		var others []string
		for j, other := range devices {
			if j != i && other.store != nil {
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
			return devices, nil
		}
		if err := devices[best].step(hooks{}); err != nil {
			return nil, err
		}
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

// RunScenario replays a serialized multi-device scenario with every
// device running the same engine configuration.
func RunScenario(sc trace.Scenario, engine core.Config) (map[string]*metrics.SessionStats, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	specs := sc.DeviceSpecs()
	cfgs := make([]deviceConfig, 0, len(specs))
	for i, spec := range specs {
		cfgs = append(cfgs, deviceConfig{
			Name:   spec.Name,
			Spec:   spec,
			Engine: engine,
			Seed:   spec.Seed + int64(i),
		})
	}
	devices, err := runGroup(cfgs, sc.NetSeed, simnet.DefaultLinkProfile())
	if err != nil {
		return nil, err
	}
	out := make(map[string]*metrics.SessionStats, len(devices))
	for _, dev := range devices {
		out[dev.name] = dev.engine.Stats()
	}
	return out, nil
}
