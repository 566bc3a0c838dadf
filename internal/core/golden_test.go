package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"approxcache/internal/cachestore"
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

// parentGoldens are the SHA-256 digests of every golden row's
// transcript, recorded by running this same file at the commit whose
// engine was one processApprox function with its ladder helpers
// (serveDegraded, serveShed, repairContradicted, refreshScene). The
// dnn-faults row's second outage is shorter than it was there, so that
// the watchdog's fixed 500 ms cooldown still reaches a recovery; its
// digest was recorded with today's input at the commit before the
// cooldown became a constant. Every digest was re-recorded on the tree
// that made frames 8-bit luma: that moved every frame's pixels, and with
// them every decision downstream. The dnn-faults row once bounded the
// last result's age at 150 ms; since the last result no longer ages, its
// digest is the one the commit before produced with that bound at zero.
// Every digest was last re-recorded when nine controller counts (peer
// timeouts, breaker trips and recoveries, degraded frames, the deleted
// admission controller's level raises and lowers, quarantines, paroles,
// parole evictions) left the event table: each is the one the commit
// before produced with those nine slots dropped from its counts line. The dnn-faults and
// sensor-faults rows, the two that plant low-entropy frames, were
// re-recorded when a frame the guard refuses stopped becoming the last
// result and stopped resetting the reuse streak: the frames after each
// flat one are answered differently, and that is the change.
var parentGoldens = map[string]string{
	"default":       "06c94a574d268447374f79b6fdfac1fb8a4ec3c69b5716801d69cf75f30f4bad",
	"no-imu-gate":   "9c02607f38a20aa56680ffb237a04932656822dba9f059616ee2dda0a2caee95",
	"no-video-gate": "af632ee23cf7c881abe4144b0b2d7053a0e83f752c10327b2ddad2ea231cafbb",
	"no-gates":      "716fbb607d238ffe2e7c6041900c2951193a83f35262fad88386650f5b20d5ad",
	"keyframes-1":   "a07c5d16ca2302387db0d2d48a9a296084bf8a54972e5533a07ed6a4a016a9f3",
	"streak-1":      "f0ff099680a5489445ea3e54fec5ab9eda2ea106cda2c8bd4781657a305d1390",
	"quality-drift": "c4546fb82cfc3d90769e0e43980a374a764a1f729134292c4b2a1ab2468d7026",
	"dnn-faults":    "c43ee21ca31cd2ac7e57fe6d47e5de372d8fb7e4fd053015092d92fd4e634d53",
	"sensor-faults": "584d8dd7b9f106a1053015e19ae181c65ba2ebe3b6535580c9591d1516db51bb",
	"unguarded":     "28535254d0dbae07c77ccc30a6f49bd77c6269505152baf62281d6b4ff487f41",
	"mesh-gossip":   "9d271b9619248e0afab8a629bfe92c3f2bb3994731482077352680eafde68907",
}

// goldenRow is one configuration of the golden matrix.
type goldenRow struct {
	name string
	// cfg adjusts DefaultConfig.
	cfg func(*Config)
	// plan scripts the classifier's faults for a vocabulary of n classes.
	plan func(n int) dnn.FaultPlan
	// inject rewrites frame i of a stream (sensor faults); nil keeps it.
	inject func(i int, f diffFrame) diffFrame
	// mesh runs two engines over simnet instead of one.
	mesh bool
}

// goldenRows is the matrix: the gate switches, keyframe and streak
// bounds, the quality layer under drift, a classifier outage through the
// watchdog and both ladder rungs, sensor faults with and without the
// guards, and a two-device mesh.
func goldenRows() []goldenRow {
	return []goldenRow{
		{name: "default"},
		{name: "no-imu-gate", cfg: func(c *Config) { c.DisableIMUGate = true }},
		{name: "no-video-gate", cfg: func(c *Config) { c.DisableVideoGate = true }},
		{name: "no-gates", cfg: func(c *Config) { c.DisableIMUGate, c.DisableVideoGate = true, true }},
		{name: "keyframes-1", cfg: func(c *Config) { c.KeyframeCapacity = 1 }},
		{name: "streak-1", cfg: func(c *Config) { c.MaxReuseStreak = 1 }},
		{name: "quality-drift", cfg: func(c *Config) {
			c.Quality = QualityConfig{Enabled: true, AuditSampleEvery: 4}
		}, plan: func(n int) dnn.FaultPlan {
			return dnn.FaultPlan{{From: 25, To: 1 << 30, Kind: dnn.FaultDrift, Relabel: dnn.ShiftRelabel(1, n)}}
		}},
		{name: "dnn-faults", plan: func(int) dnn.FaultPlan {
			return dnn.FaultPlan{
				{From: 5, To: 6, Kind: dnn.FaultError},
				{From: 20, To: 26, Kind: dnn.FaultError},
				{From: 70, To: 74, Kind: dnn.FaultError},
			}
		}, inject: func(i int, f diffFrame) diffFrame {
			// A low-entropy frame has no descriptor, so a down DNN sends it
			// straight to the last-result rung.
			if i%19 == 7 {
				f.img = flatFrame(f.img)
			}
			return f
		}},
		{name: "sensor-faults", inject: injectSensorFaults(true)},
		{name: "unguarded", cfg: func(c *Config) { c.DisableSensorGuards = true }, inject: injectSensorFaults(false)},
		{name: "mesh-gossip", mesh: true},
	}
}

// injectSensorFaults returns an injector planting low-entropy and
// short-buffer frames and stuck IMU windows on a fixed schedule, plus —
// when nonFinite — non-finite windows (which an unguarded engine would
// feed straight into its detector).
func injectSensorFaults(nonFinite bool) func(int, diffFrame) diffFrame {
	return func(i int, f diffFrame) diffFrame {
		switch {
		case i%19 == 7:
			f.img = flatFrame(f.img)
		case i%29 == 13:
			f.img = &vision.Image{W: f.img.W, H: f.img.H, Pix: f.img.Pix[:len(f.img.Pix)-1]}
		}
		switch {
		case i%17 == 3:
			f.win = stuckWindow(0)
		case nonFinite && i%31 == 5:
			win := append([]imu.Sample(nil), f.win...)
			if len(win) == 0 {
				win = stationaryWindow(0)
			}
			win[len(win)/2].Gyro[1] = math.Inf(1)
			f.win = win
		}
		return f
	}
}

// flatFrame is a low-entropy frame the size of im.
func flatFrame(im *vision.Image) *vision.Image {
	flat := vision.NewImage(im.W, im.H)
	for j := range flat.Pix {
		flat.Pix[j] = 128
	}
	return flat
}

// goldenStreams is the matrix's input: the four standard IMU+video
// traces and one photo-churn stream.
func goldenStreams(t *testing.T) []diffStream {
	t.Helper()
	var out []diffStream
	for _, spec := range trace.StandardSpecs(200, 3) {
		w, err := trace.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, diffStream{spec.Name, w.Classes, traceFrames(w)})
	}
	classes, frames := churnStream(t, 300)
	return append(out, diffStream{"churn", classes, frames})
}

// goldenDevice is one engine of a golden run with its substrates.
type goldenDevice struct {
	engine *Engine
	store  *cachestore.Store
}

func newGoldenDevice(t *testing.T, row goldenRow, classes *vision.ClassSet, seed int64, peers *p2p.Client, clock *simclock.Virtual) goldenDevice {
	t.Helper()
	cfg := DefaultConfig()
	if row.cfg != nil {
		row.cfg(&cfg)
	}
	inner, err := dnn.NewClassifier(dnn.MobileNetV2, classes, seed)
	if err != nil {
		t.Fatal(err)
	}
	var plan dnn.FaultPlan
	if row.plan != nil {
		plan = row.plan(classes.NumClasses())
	}
	clf, err := dnn.NewFaultyClassifier(inner, plan)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := lsh.NewHyperplane(cfg.Extractor.Dim(), 12, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	store, err := cachestore.New(cachestore.Config{Capacity: 96, Policy: cachestore.CostAware, QuarantineThreshold: 1}, idx, clock)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(cfg, Deps{Clock: clock, Classifier: clf, Store: store, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	return goldenDevice{engine: eng, store: store}
}

// processFunc processes one frame on one engine of a golden run.
type processFunc func(e *Engine, f diffFrame) (Result, error)

func processWithTruth(e *Engine, f diffFrame) (Result, error) {
	return e.ProcessWithTruth(f.img, f.win, f.truth)
}

// goldenRun plays every stream through the row's engine(s) with process
// and returns the transcript's hash and a tally of what the run reached:
// result sources and degradation levels, error prefixes, nonzero event
// counters, sensor-fault classes and store quarantines.
func goldenRun(t *testing.T, row goldenRow, streams []diffStream, process processFunc) (string, map[string]int) {
	t.Helper()
	h := sha256.New()
	seen := map[string]int{}
	for si, st := range streams {
		frames := st.frames
		if row.inject != nil {
			frames = make([]diffFrame, len(st.frames))
			for i, f := range st.frames {
				frames[i] = row.inject(i, f)
			}
		}
		var devs []goldenDevice
		if row.mesh {
			devs = goldenMesh(t, row, st.classes)
		} else {
			devs = []goldenDevice{newGoldenDevice(t, row, st.classes, int64(si+1), nil, simclock.NewVirtual(time.Unix(0, 0)))}
		}
		fmt.Fprintf(h, "stream %s\n", st.name)
		for i := range frames {
			for d, dev := range devs {
				res, err := process(dev.engine, frames[(i+d*len(frames)/2)%len(frames)])
				writeGoldenResult(h, i, d, res, err)
				if err != nil {
					seen["error:"+strings.SplitN(err.Error(), ":", 2)[0]]++
				} else {
					seen[string(res.Source)]++
					seen["degrade:"+res.Degradation.String()]++
				}
			}
		}
		for d, dev := range devs {
			writeGoldenState(h, d, dev)
			counts := dev.engine.Stats().Counts()
			for ev, n := range counts {
				seen["event:"+metrics.Event(ev).String()] += int(n)
			}
			for k, n := range dev.engine.Stats().SensorFaults() {
				seen["fault:"+k] += n
			}
			seen["store:quarantined"] += dev.store.QuarantineStats().Total
		}
	}
	return hex.EncodeToString(h.Sum(nil)), seen
}

// goldenMesh builds two engines whose stores serve each other over a
// lossy simnet, each engine querying and gossiping to the other.
func goldenMesh(t *testing.T, row goldenRow, classes *vision.ClassSet) []goldenDevice {
	t.Helper()
	net, err := simnet.New(simnet.DefaultLinkProfile(), 5)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"dev-a", "dev-b"}
	devs := make([]goldenDevice, len(names))
	for d, name := range names {
		clock := simclock.NewVirtual(time.Unix(0, 0))
		tr, err := p2p.NewSimnetTransport(name, net)
		if err != nil {
			t.Fatal(err)
		}
		ccfg := p2p.DefaultClientConfig()
		ccfg.Clock = clock
		client, err := p2p.NewClient(ccfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		client.SetPeers([]string{names[1-d]})
		devs[d] = newGoldenDevice(t, row, classes, int64(d+1), client, clock)
		svc, err := p2p.NewService(p2p.DefaultServiceConfig(name), devs[d].store)
		if err != nil {
			t.Fatal(err)
		}
		if err := p2p.RegisterService(net, svc); err != nil {
			t.Fatal(err)
		}
	}
	return devs
}

func writeGoldenResult(h hash.Hash, i, d int, res Result, err error) {
	if err != nil {
		fmt.Fprintf(h, "%d/%d error %q\n", i, d, err.Error())
		return
	}
	fmt.Fprintf(h, "%d/%d %q %x %s %d %x %q %d\n", i, d, res.Label, math.Float64bits(res.Confidence),
		res.Source, res.Latency, math.Float64bits(res.EnergyMJ), res.PeerName, res.Degradation)
}

// writeGoldenState renders what a caller can see of a device after its
// stream: the store's entries, the event table, per-source counts, the
// sensor-fault classes and the energy and accuracy totals.
func writeGoldenState(h hash.Hash, d int, dev goldenDevice) {
	snap := dev.store.Snapshot()
	sort.Slice(snap, func(i, j int) bool { return snap[i].ID < snap[j].ID })
	for _, e := range snap {
		fmt.Fprintf(h, "entry %d %d %q %x %q %d %d %d %d %d %d %d %v", d, e.ID, e.Label, math.Float64bits(e.Confidence),
			e.Source, e.SavedCost, e.InsertedAt.UnixNano(), e.LastAccess.UnixNano(),
			e.Hits, e.Confirms, e.Refutes, e.ParoleFails, e.Quarantined)
		for _, x := range e.Vec {
			fmt.Fprintf(h, " %x", math.Float64bits(x))
		}
		fmt.Fprintln(h)
	}
	st := dev.engine.Stats()
	fmt.Fprintf(h, "counts %d %v\n", d, st.Counts())
	by := st.CountBySource()
	for _, src := range metrics.Sources() {
		fmt.Fprintf(h, "source %d %s %d\n", d, src, by[src])
	}
	faults := st.SensorFaults()
	kinds := make([]string, 0, len(faults))
	for k := range faults {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(h, "fault %d %s %d\n", d, k, faults[k])
	}
	fmt.Fprintf(h, "totals %d %d %x %x\n", d, st.Frames(), math.Float64bits(st.EnergyMJ()), math.Float64bits(st.Accuracy()))
}

// TestEngineMatchesParentGolden: every row of the matrix produces, frame
// for frame and in its final store and scoreboard, byte for byte what
// the engine produced before it became a stage list. Each row must also
// reach what it exists to pin, so that no row passes by accident.
func TestEngineMatchesParentGolden(t *testing.T) {
	streams := goldenStreams(t)
	for _, row := range goldenRows() {
		t.Run(row.name, func(t *testing.T) {
			got, seen := goldenRun(t, row, streams, processWithTruth)
			checkGoldenCoverage(t, row, seen)
			if want := parentGoldens[row.name]; got != want {
				t.Errorf("transcript hashes to %s, the parent's to %q", got, want)
			}
		})
	}
}

// checkGoldenCoverage fails a row whose streams never reached what the
// row exists to pin.
func checkGoldenCoverage(t *testing.T, row goldenRow, seen map[string]int) {
	t.Helper()
	need := []string{"dnn", "event:repair"}
	switch row.name {
	case "default", "keyframes-1", "streak-1":
		need = append(need, "imu", "video", "local")
	case "no-imu-gate":
		need = append(need, "video", "local")
	case "no-video-gate":
		need = append(need, "imu", "local")
	case "no-gates":
		need = append(need, "local")
	case "quality-drift":
		need = append(need, "event:audit-refuted", "store:quarantined", "event:reuse-refusal")
	case "dnn-faults":
		need = append(need, "degrade:cache-only", "degrade:last-result",
			"event:watchdog-retry", "event:watchdog-trip", "event:watchdog-recovery", "event:watchdog-fast-fail")
	case "sensor-faults":
		need = append(need, "fault:frame-low-entropy", "fault:frame-empty",
			"fault:imu-stuck", "fault:imu-non-finite")
	case "unguarded":
		need = append(need, "error:extract")
	case "mesh-gossip":
		need = append(need, "peer", "event:peer-query", "event:peer-hit")
	}
	for _, k := range need {
		if seen[k] == 0 {
			t.Errorf("row %s never produced %q (saw %v)", row.name, k, seen)
		}
	}
}
