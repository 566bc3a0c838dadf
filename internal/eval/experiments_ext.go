package eval

import (
	"fmt"
	"math/rand"
	"time"

	"approxcache/internal/core"
	"approxcache/internal/dnn"
	"approxcache/internal/feature"
	"approxcache/internal/metrics"
	"approxcache/internal/p2p"
	"approxcache/internal/simclock"
	"approxcache/internal/simnet"
	"approxcache/internal/trace"
)

// E10ModelSweep measures the benefit across the model zoo: heavier
// models leave more latency and energy on the table for the cache to
// save.
func E10ModelSweep(s Scale) Report {
	spec := trace.StationaryHeavy(s.Frames, s.Seed)
	report := Report{
		ID:      "E10",
		Title:   "Benefit across the model zoo (stationary-heavy)",
		Headers: []string{"model", "no-cache mean", "approx mean", "reduction", "accuracy Δ", "energy ratio"},
		Notes: []string{
			"the relative saving is nearly model-independent: reuse removes a fixed fraction of inferences",
		},
	}
	for _, profile := range dnn.Profiles() {
		base := runSingle(deviceConfig{
			Name: "main", Spec: spec, Engine: baseline(core.ModeNoCache), Profile: profile, Seed: s.Seed,
		}).engine.Stats()
		apx := runSingle(deviceConfig{
			Name: "main", Spec: spec, Engine: core.DefaultConfig(), Profile: profile, Seed: s.Seed,
		}).engine.Stats()
		bm, am := base.Latency().Mean(), apx.Latency().Mean()
		report.Rows = append(report.Rows, []string{
			profile.Name,
			fmtDur(bm),
			fmtDur(am),
			fmtPct(1 - float64(am)/float64(bm)),
			fmt.Sprintf("%+.1fpp", (apx.Accuracy()-base.Accuracy())*100),
			fmtPct(apx.EnergyMJ() / base.EnergyMJ()),
		})
	}
	return report
}

// E11Robustness stresses approximate matching with the aggressive
// perturbation profile (more noise, bigger shifts, frequent occlusion).
func E11Robustness(s Scale) Report {
	report := Report{
		ID:    "E11",
		Title: "Robustness to frame degradation (default vs hard perturbation)",
		Headers: []string{"workload", "perturbation", "hit-rate", "accuracy",
			"no-cache accuracy", "mean-latency"},
		Notes: []string{
			"the no-cache column separates classifier degradation (hard frames confuse the DNN too) from cache-induced loss",
		},
	}
	for _, base := range []trace.Spec{
		trace.StationaryHeavy(s.Frames, s.Seed),
		trace.PanningSweep(s.Frames, s.Seed),
	} {
		for _, hard := range []bool{false, true} {
			spec := base
			spec.Hard = hard
			dev := runSingle(deviceConfig{Name: "main", Spec: spec, Engine: core.DefaultConfig(), Seed: s.Seed})
			baseDev := runSingle(deviceConfig{Name: "main", Spec: spec, Engine: baseline(core.ModeNoCache), Seed: s.Seed})
			label := "default"
			if hard {
				label = "hard"
			}
			stats := dev.engine.Stats()
			report.Rows = append(report.Rows, []string{
				spec.Name,
				label,
				fmtPct(stats.HitRate()),
				fmtPct(stats.Accuracy()),
				fmtPct(baseDev.engine.Stats().Accuracy()),
				fmtDur(stats.Latency().Mean()),
			})
		}
	}
	return report
}

// E12LossyNetwork degrades the device-to-device links and measures how
// gracefully the peer gate fails: collaboration should fade, never
// hurt correctness.
func E12LossyNetwork(s Scale) Report {
	report := Report{
		ID:      "E12",
		Title:   "Peer reuse under degraded wireless links (walking-tour, 2 helpers)",
		Headers: []string{"loss", "peer-hits", "peer-queries", "hit-rate", "accuracy", "mean-latency"},
		Notes: []string{
			"loss starves the peer gate but the local gates keep serving; accuracy is unaffected",
		},
	}
	for _, loss := range []float64{0, 0.01, 0.05, 0.2, 0.5} {
		link := simnet.DefaultLinkProfile()
		link.LossProb = loss
		spec := trace.WalkingTour(s.Frames, s.Seed)
		spec.ClassSkew = 0.8
		stats := runGroup(crowd(spec, s.Seed+555, 2, "helper", func(i int) trace.Spec {
			return trace.WalkingTour(s.Frames, s.Seed+int64(i+1)*13)
		}, core.DefaultConfig(), s, 7), s.Seed, link)[0].engine.Stats()
		queries, hits := stats.PeerQueries()
		report.Rows = append(report.Rows, []string{
			fmtPct(loss),
			fmt.Sprintf("%d", hits),
			fmt.Sprintf("%d", queries),
			fmtPct(stats.HitRate()),
			fmtPct(stats.Accuracy()),
			fmtDur(stats.Latency().Mean()),
		})
	}
	return report
}

// E14GateGrid completes the ablation story: every combination of the
// cheap gates on/off, plus the keyframe-library size, on one workload.
func E14GateGrid(s Scale) Report {
	spec := trace.HandheldMix(s.Frames, s.Seed)
	report := Report{
		ID:    "E14",
		Title: "Gate ablation grid (handheld-mix)",
		Headers: []string{"configuration", "imu", "video", "local", "dnn",
			"hit-rate", "accuracy", "mean-latency"},
		Notes: []string{
			"disabling a cheap gate shifts load to the next (more expensive) one; the full stack is fastest",
		},
	}
	type variant struct {
		name      string
		noIMU     bool
		noVideo   bool
		keyframes int
	}
	variants := []variant{
		{name: "full (4 keyframes)", keyframes: 4},
		{name: "single keyframe", keyframes: 1},
		{name: "no imu gate", noIMU: true, keyframes: 4},
		{name: "no video gate", noVideo: true, keyframes: 4},
		{name: "feature cache only", noIMU: true, noVideo: true, keyframes: 4},
	}
	for _, v := range variants {
		cfg := core.DefaultConfig()
		cfg.DisableIMUGate = v.noIMU
		cfg.DisableVideoGate = v.noVideo
		cfg.KeyframeCapacity = v.keyframes
		stats := runSingle(deviceConfig{Name: "main", Spec: spec, Engine: cfg, Seed: s.Seed}).engine.Stats()
		row := []string{v.name}
		counts := stats.CountBySource()
		for _, src := range []metrics.Source{metrics.SourceIMU, metrics.SourceVideo, metrics.SourceLocal, metrics.SourceDNN} {
			row = append(row, fmtPct(float64(counts[src])/float64(stats.Frames())))
		}
		report.Rows = append(report.Rows, append(row,
			fmtPct(stats.HitRate()),
			fmtPct(stats.Accuracy()),
			fmtDur(stats.Latency().Mean()),
		))
	}
	return report
}

// E17PeerChurn measures why re-probing the peer set matters: peers
// come and go (devices leave the neighborhood), and a requester with a
// stale peer list keeps paying radio timeouts on dead peers. The
// maintained client re-probes between rounds (Client.Probe) and sheds
// them.
func E17PeerChurn(s Scale) Report {
	const (
		dim     = 16
		peerCnt = 6
		rounds  = 12
		perRnd  = 20
	)
	rng := rand.New(rand.NewSource(s.Seed))
	// Shared content region: every live peer can answer every query.
	center := randUnitVec(rng, dim)
	queries := make([]feature.Vector, perRnd)
	for i := range queries {
		queries[i] = perturb(center, rng, 0.03)
	}

	run := func(maintained bool) (meanCost time.Duration, hits int) {
		net := must(simnet.New(simnet.LinkProfile{Latency: 5 * time.Millisecond}, s.Seed))
		net.SetDeadCost(80 * time.Millisecond) // radio timeout on dead peers
		clock := simclock.NewVirtual(time.Unix(0, 0))
		names, services := peerFleet(net, clock, peerCnt, 64, 16, 0.03, rng,
			func(int) (feature.Vector, string) { return center, "class-0" })
		// The breaker is disabled here so the experiment isolates what
		// re-probing alone buys; the resilience layer's own effect is
		// measured by E18.
		ccfg := p2p.DefaultClientConfig()
		ccfg.DisableBreaker = true
		client := must(p2p.JoinSimnet(net, "main", nil, ccfg))
		client.SetPeers(names)

		var total time.Duration
		n := 0
		down := -1
		for round := 0; round < rounds; round++ {
			// Churn: the previous casualty returns, a new one leaves.
			if down >= 0 {
				check(p2p.RegisterService(net, services[down]))
			}
			down = round % peerCnt
			net.Unregister(simnet.NodeID(names[down]))
			if maintained {
				client.Probe("main", names)
			}
			for _, q := range queries {
				out, err := client.QueryFrame(q, 0)
				check(err)
				if out.Found {
					hits++
				}
				total += out.Cost
				n++
			}
		}
		return total / time.Duration(n), hits
	}

	report := Report{
		ID:      "E17",
		Title:   "Roster maintenance under peer churn (6 peers, 1 down per round, 80 ms dead-peer timeout)",
		Headers: []string{"peer list", "mean query cost", "peer-hits"},
		Notes: []string{
			"a static peer list keeps paying the dead-peer timeout every query; a maintained roster sheds it",
		},
	}
	for _, maintained := range []bool{false, true} {
		mean, hits := run(maintained)
		mode := "static"
		if maintained {
			mode = "maintained roster"
		}
		report.Rows = append(report.Rows, []string{
			mode,
			fmtDur(mean),
			fmt.Sprintf("%d", hits),
		})
	}
	return report
}

// E18ChaosResilience crashes every peer mid-session and heals them
// later, comparing the guarded client (breaker + per-frame budget)
// against a fully unguarded one on the crash-window latency. The
// bound the resilience layer must meet: crash-window mean within 10%
// of the no-peers baseline.
func E18ChaosResilience(s Scale) Report {
	report := Report{
		ID: "E18",
		Title: fmt.Sprintf(
			"Chaos resilience: all peers crash 40%% in, heal 70%% in (%d frames, 80 ms dead-peer timeout)",
			s.Frames),
		Headers: []string{"client", "crash mean", "vs baseline", "peer-hits pre/heal",
			"trips", "recoveries", "degraded frames"},
		Notes: []string{
			"baseline is the same device with no peers at all; the guarded client must stay within 10% of it through the crash window",
			"the unguarded client keeps paying the dead-peer timeout on every P2P-gate frame until the heal",
		},
	}
	for _, guarded := range []bool{true, false} {
		name := "guarded (breaker + budget)"
		if !guarded {
			name = "unguarded"
		}
		res := runChaos(s, guarded)
		base := res.Baseline[phaseCrash].Mean
		over := "n/a"
		if base > 0 {
			over = fmtPct(float64(res.Run[phaseCrash].Mean)/float64(base) - 1)
		}
		report.Rows = append(report.Rows, []string{
			name,
			fmtDur(res.Run[phaseCrash].Mean),
			over,
			fmt.Sprintf("%d / %d", res.Run[phasePre].PeerHits, res.Run[phaseHeal].PeerHits),
			fmt.Sprintf("%d", res.Health.Trips),
			fmt.Sprintf("%d", res.Health.Recoveries),
			// The engine is the client's only caller: one degraded
			// query per degraded frame.
			fmt.Sprintf("%d", res.Health.DegradedQueries),
		})
	}
	return report
}
