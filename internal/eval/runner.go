package eval

import (
	"fmt"
	"sort"
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

// DeviceConfig describes one simulated device in a run.
type DeviceConfig struct {
	// Name identifies the device (and its network node).
	Name string
	// Spec is the device's workload.
	Spec trace.Spec
	// Engine is the pipeline configuration.
	Engine core.Config
	// Capacity and Policy shape the device's cache store.
	Capacity int
	Policy   cachestore.Policy
	// Profile is the device's DNN profile.
	Profile dnn.Profile
	// Seed drives the device's classifier and LSH index.
	Seed int64
	// Client, when non-nil, overrides the peer-client policy (breaker,
	// budget, health smoothing). The clock is always bound to the
	// run's virtual clock regardless.
	Client *p2p.ClientConfig
	// WrapClassifier, when non-nil, wraps the device's classifier
	// before the engine sees it — the hook fault harnesses use to
	// interpose a dnn.FaultyClassifier.
	WrapClassifier func(dnn.Recognizer) core.Classifier
	// CorruptIMU, when non-nil, rewrites a frame's IMU window before
	// the engine sees it (frame is the zero-based frame index). The
	// clean window is still used for the workload's arrival timeline.
	CorruptIMU func(frame int, win []imu.Sample) []imu.Sample
	// CorruptFrame, when non-nil, rewrites a frame's image likewise.
	CorruptFrame func(frame int, im *vision.Image) *vision.Image
}

// defaults fills zero fields.
func (d *DeviceConfig) defaults() {
	if d.Capacity == 0 {
		d.Capacity = 256
	}
	if d.Policy == 0 {
		d.Policy = cachestore.CostAware
	}
	if d.Profile.Name == "" {
		d.Profile = dnn.MobileNetV2
	}
	if d.Seed == 0 {
		d.Seed = 1
	}
}

// device is one instantiated pipeline plus its workload.
type device struct {
	name         string
	engine       *core.Engine
	work         *trace.Workload
	store        *cachestore.Store
	client       *p2p.Client
	corruptIMU   func(frame int, win []imu.Sample) []imu.Sample
	corruptFrame func(frame int, im *vision.Image) *vision.Image
	prev         time.Duration
	next         int // next frame index
	// lat holds every served frame's latency, for the tables that
	// print exact percentiles.
	lat exactRecorder
}

// buildDevice instantiates cfg on clock, optionally attached to net.
func buildDevice(cfg DeviceConfig, clock simclock.Clock, net *simnet.Network) (*device, error) {
	cfg.defaults()
	w, err := trace.Generate(cfg.Spec)
	if err != nil {
		return nil, fmt.Errorf("device %s workload: %w", cfg.Name, err)
	}
	classifier, err := dnn.NewClassifier(cfg.Profile, w.Classes, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("device %s classifier: %w", cfg.Name, err)
	}
	var store *cachestore.Store
	var peers *p2p.Client
	if cfg.Engine.Mode == core.ModeApprox {
		idx, err := lsh.NewHyperplane(cfg.Engine.Extractor.Dim(), 12, 4, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("device %s index: %w", cfg.Name, err)
		}
		store, err = cachestore.New(cachestore.Config{
			Capacity: cfg.Capacity,
			Policy:   cfg.Policy,
		}, idx, clock)
		if err != nil {
			return nil, fmt.Errorf("device %s store: %w", cfg.Name, err)
		}
		if net != nil {
			svc, err := p2p.NewService(p2p.DefaultServiceConfig(cfg.Name), store)
			if err != nil {
				return nil, fmt.Errorf("device %s service: %w", cfg.Name, err)
			}
			if err := p2p.RegisterService(net, svc); err != nil {
				return nil, fmt.Errorf("device %s register: %w", cfg.Name, err)
			}
			tr, err := p2p.NewSimnetTransport(cfg.Name, net)
			if err != nil {
				return nil, fmt.Errorf("device %s transport: %w", cfg.Name, err)
			}
			ccfg := p2p.DefaultClientConfig()
			if cfg.Client != nil {
				ccfg = *cfg.Client
			}
			// Breaker backoffs must elapse in the run's virtual time, or
			// circuits would (nondeterministically) heal on the wall
			// clock instead.
			ccfg.Clock = clock
			peers, err = p2p.NewClient(ccfg, tr)
			if err != nil {
				return nil, fmt.Errorf("device %s client: %w", cfg.Name, err)
			}
		}
	}
	var rec core.Classifier = classifier
	if cfg.WrapClassifier != nil {
		rec = cfg.WrapClassifier(classifier)
	}
	eng, err := core.New(cfg.Engine, core.Deps{
		Clock:      clock,
		Classifier: rec,
		Store:      store,
		Peers:      peers,
	})
	if err != nil {
		return nil, fmt.Errorf("device %s engine: %w", cfg.Name, err)
	}
	return &device{
		name: cfg.Name, engine: eng, work: w, store: store, client: peers,
		corruptIMU: cfg.CorruptIMU, corruptFrame: cfg.CorruptFrame,
	}, nil
}

// step processes the device's next frame. Returns false when the
// workload is exhausted.
func (d *device) step() (bool, error) {
	_, ok, err := d.stepResult()
	return ok, err
}

// stepResult is step exposing the frame's pipeline result, for harnesses
// that classify frames (e.g. the chaos runner's phase windows).
func (d *device) stepResult() (core.Result, bool, error) {
	if d.next >= len(d.work.Frames) {
		return core.Result{}, false, nil
	}
	fr := d.work.Frames[d.next]
	idx := d.next
	win := d.work.IMUWindow(d.prev, fr.Offset)
	d.prev = fr.Offset
	d.next++
	im := fr.Image
	if d.corruptIMU != nil {
		win = d.corruptIMU(idx, win)
	}
	if d.corruptFrame != nil {
		im = d.corruptFrame(idx, im)
	}
	res, err := d.engine.ProcessWithTruth(im, win, dnn.LabelOf(fr.Class))
	if err != nil {
		return core.Result{}, false, fmt.Errorf("device %s frame %d: %w", d.name, fr.Index, err)
	}
	d.lat.record(res.Latency)
	return res, true, nil
}

// RunSingle replays one device's workload to completion and returns its
// stats and the device's store (nil outside approx mode).
func RunSingle(cfg DeviceConfig) (*metrics.SessionStats, *cachestore.Store, error) {
	dev, err := runSingle(cfg)
	if err != nil {
		return nil, nil, err
	}
	return dev.engine.Stats(), dev.store, nil
}

// runSingle is RunSingle returning the finished device.
func runSingle(cfg DeviceConfig) (*device, error) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	dev, err := buildDevice(cfg, clock, nil)
	if err != nil {
		return nil, err
	}
	for {
		ok, err := dev.step()
		if err != nil {
			return nil, err
		}
		if !ok {
			return dev, nil
		}
	}
}

// RunGroup replays several devices on one shared simulated network
// (default short-range link profile), interleaving frames in timestamp
// order so gossip and queries happen causally. It returns per-device
// stats keyed by device name.
//
// Every spec should share a ClassSeed so the devices recognize the same
// object vocabulary; otherwise peers can never help each other.
func RunGroup(cfgs []DeviceConfig, netSeed int64) (map[string]*metrics.SessionStats, error) {
	return RunGroupLink(cfgs, netSeed, simnet.DefaultLinkProfile())
}

// RunGroupLink is RunGroup with an explicit link profile, used by the
// degraded-network experiment.
func RunGroupLink(cfgs []DeviceConfig, netSeed int64, link simnet.LinkProfile) (map[string]*metrics.SessionStats, error) {
	devices, err := runGroupLink(cfgs, netSeed, link)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*metrics.SessionStats, len(devices))
	for _, dev := range devices {
		out[dev.name] = dev.engine.Stats()
	}
	return out, nil
}

// runGroupLink is RunGroupLink returning the finished devices, in cfgs
// order.
func runGroupLink(cfgs []DeviceConfig, netSeed int64, link simnet.LinkProfile) ([]*device, error) {
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
			break
		}
		if _, err := devices[best].step(); err != nil {
			return nil, err
		}
	}
	return devices, nil
}

// RunScenario replays a serialized multi-device scenario with every
// device running the same engine configuration.
func RunScenario(sc trace.Scenario, engine core.Config) (map[string]*metrics.SessionStats, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	specs := sc.DeviceSpecs()
	cfgs := make([]DeviceConfig, 0, len(specs))
	for i, spec := range specs {
		cfgs = append(cfgs, DeviceConfig{
			Name:   spec.Name,
			Spec:   spec,
			Engine: engine,
			Seed:   spec.Seed + int64(i),
		})
	}
	return RunGroup(cfgs, sc.NetSeed)
}

// sortedSources returns the per-source counts in pipeline order.
func sourceCounts(stats *metrics.SessionStats) []int {
	counts := stats.CountBySource()
	out := make([]int, 0, 5)
	for _, s := range metrics.Sources() {
		out = append(out, counts[s])
	}
	return out
}

// sortedKeys returns map keys in sorted order (deterministic reports).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
