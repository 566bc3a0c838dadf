// Chaos harness: replays one device's workload against a peer set that
// crashes mid-session and restarts later, and windows the per-frame
// results into pre-crash / crash / post-heal phases. E18 and the
// acceptance chaos test both run on it.
package eval

import (
	"fmt"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/core"
	"approxcache/internal/imu"
	"approxcache/internal/metrics"
	"approxcache/internal/p2p"
	"approxcache/internal/simclock"
	"approxcache/internal/simnet"
	"approxcache/internal/trace"
	"approxcache/internal/video"
)

// Chaos phase windows, delimited by the crash and heal offsets.
const (
	// phasePre is before every peer crashes.
	phasePre = iota
	// phaseCrash is while every peer is down.
	phaseCrash
	// phaseHeal is after every peer restarts.
	phaseHeal
	chaosPhases
)

// The chaos run's shape.
const (
	// chaosMinFrames is the shortest workload whose phases are all
	// populated; RunExperiments refuses E18 below it.
	chaosMinFrames = 30
	// chaosPeers is how many warm peers surround the main device.
	chaosPeers = 2
	// chaosDeadCost is the radio timeout charged for exchanges with a
	// crashed peer — what an unguarded client keeps paying, frame after
	// frame.
	chaosDeadCost = 80 * time.Millisecond
	// chaosBudget is the guarded device's per-frame P2P time budget:
	// just above the healthy link round trip (~10.6 ms at the 5 ms /
	// 1 MB/s profile), so a live peer always answers in budget while
	// trips and re-probes against dead peers cost at most the budget
	// instead of chaosDeadCost.
	chaosBudget = 12 * time.Millisecond
	// chaosCapacity keeps the main device's local cache near-empty, so
	// its gate composition is identical with and without peers (the
	// local gate serves almost nothing either way) and the crash-window
	// latency comparison isolates the resilience layer's own overhead.
	chaosCapacity = 2
)

// chaosPhase aggregates one window of frames.
type chaosPhase struct {
	// Frames is how many frames fell in the window.
	Frames int
	// Mean is the window's mean frame latency.
	Mean time.Duration
	// PeerHits counts frames served by the P2P gate.
	PeerHits int
}

// chaosResult is the outcome of one chaos run.
type chaosResult struct {
	// Baseline is the same device and workload with no peers at all —
	// the latency the pipeline owes regardless of the network.
	Baseline [chaosPhases]chaosPhase
	// Run is the device under test: peers attached, crashed and
	// restarted.
	Run [chaosPhases]chaosPhase
	// Health is the client's final health snapshot: per-peer state,
	// breaker trips and recoveries, degraded queries.
	Health p2p.HealthSnapshot
}

// runChaos warms chaosPeers peer caches on the main device's exact
// workload, then replays the main device, crashing every peer ~40% in
// and restarting them ~70% in (offsets on the workload's arrival
// timeline). A no-peers baseline run of the same workload provides the
// reference latency per phase. guarded selects the default breaker and
// chaosBudget; unguarded disables both. s.Frames is at least
// chaosMinFrames.
func runChaos(s Scale, guarded bool) chaosResult {
	// An all-panning route over a vocabulary much larger than the main
	// device's cache: constant scene changes defeat the IMU/video
	// gates and evictions defeat the local gate, so frames reach the
	// P2P gate (and, without peers, the DNN) at a steady rate in every
	// phase. A stationary or handheld tail would be absorbed by the
	// IMU gate — whose periodic revalidation frames bypass gate 4 by
	// design — and post-heal peer reuse could never show up.
	spec := trace.PanningSweep(s.Frames, s.Seed)
	spec.NumClasses = 24
	spec.Segments = []video.Segment{{Regime: imu.Panning, Frames: s.Frames}}
	mainStore := cachestore.Config{Capacity: chaosCapacity, Policy: cachestore.CostAware}

	var out chaosResult
	baseDev := buildDevice(deviceConfig{
		Name: "main", Spec: spec, Engine: core.DefaultConfig(), Store: mainStore, Seed: s.Seed,
	}, simclock.NewVirtual(time.Unix(0, 0)), nil)
	// Fault offsets on the arrival timeline (the replay pins the clock
	// to each frame's arrival, so these fire mid-session for any
	// pipeline speed).
	crashAt := baseDev.work.Frames[s.Frames*2/5].Offset
	healAt := baseDev.work.Frames[s.Frames*7/10].Offset

	// window replays dev's whole workload on its arrival timeline and
	// windows the results by the clock a frame starts at: its arrival,
	// or later when the previous frame ran past it. Before the first
	// frame at or past phaseCrash every peer crashes, and before the
	// first at phaseHeal every peer restarts; a frame that jumps from
	// pre straight to heal does both, leaving them up.
	window := func(dev *device, net *simnet.Network, peers []string) [chaosPhases]chaosPhase {
		var sums [chaosPhases]time.Duration
		var phases [chaosPhases]chaosPhase
		start, phase := dev.clock.Now(), phasePre
		crashed, restarted := false, false
		dev.replay(hooks{
			pin: true,
			before: func(int, *frameInput) {
				switch elapsed := dev.clock.Now().Sub(start); {
				case elapsed < crashAt:
					phase = phasePre
				case elapsed < healAt:
					phase = phaseCrash
				default:
					phase = phaseHeal
				}
				if phase >= phaseCrash && !crashed {
					crashed = true
					for _, p := range peers {
						net.Crash(simnet.NodeID(p))
					}
				}
				if phase == phaseHeal && !restarted {
					restarted = true
					for _, p := range peers {
						net.Restart(simnet.NodeID(p))
					}
				}
			},
			after: func(_ int, _ *frameInput, res core.Result, err error) {
				check(err)
				phases[phase].Frames++
				sums[phase] += res.Latency
				if res.Source == metrics.SourcePeer {
					phases[phase].PeerHits++
				}
			},
		})
		for i := range phases {
			if phases[i].Frames > 0 {
				phases[i].Mean = sums[i] / time.Duration(phases[i].Frames)
			}
		}
		return phases
	}
	out.Baseline = window(baseDev, nil, nil)

	// Faulted run: warm peers first (identical workload, so their
	// caches cover exactly what the main device will ask), then replay
	// the main device while they crash and restart.
	clock := simclock.NewVirtual(time.Unix(0, 0))
	net := must(simnet.New(simnet.LinkProfile{
		Latency: 5 * time.Millisecond, BandwidthBps: 1 << 20,
	}, s.Seed))
	net.SetDeadCost(chaosDeadCost)
	peerNames := make([]string, chaosPeers)
	for i := range peerNames {
		peerNames[i] = fmt.Sprintf("peer-%d", i)
		buildDevice(deviceConfig{
			Name: peerNames[i], Spec: spec, Engine: core.DefaultConfig(), Seed: s.Seed,
		}, clock, net).replay(hooks{})
	}
	ccfg := p2p.DefaultClientConfig()
	ccfg.DisableBreaker = !guarded
	ecfg := core.DefaultConfig()
	if guarded {
		ecfg.PeerBudget = chaosBudget
	} else {
		ecfg.PeerBudget = -1 // unbounded
	}
	dev := buildDevice(deviceConfig{
		Name: "main", Spec: spec, Engine: ecfg, Store: mainStore, Seed: s.Seed, Client: &ccfg,
	}, clock, net)
	dev.client.SetPeers(peerNames)
	out.Run = window(dev, net, peerNames)
	out.Health = dev.client.Health()
	return out
}
