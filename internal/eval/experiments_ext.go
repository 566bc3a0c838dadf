package eval

import (
	"fmt"
	"math/rand"
	"time"

	"approxcache/internal/battery"
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
func E10ModelSweep(s Scale) (Report, error) {
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
		baseDev, err := runSingle(deviceConfig{
			Name: "main", Spec: spec, Engine: baseline(core.ModeNoCache), Profile: profile, Seed: s.Seed,
		})
		if err != nil {
			return Report{}, fmt.Errorf("%s base: %w", profile.Name, err)
		}
		apxDev, err := runSingle(deviceConfig{
			Name: "main", Spec: spec, Engine: core.DefaultConfig(), Profile: profile, Seed: s.Seed,
		})
		if err != nil {
			return Report{}, fmt.Errorf("%s approx: %w", profile.Name, err)
		}
		base, apx := baseDev.engine.Stats(), apxDev.engine.Stats()
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
	return report, nil
}

// E11Robustness stresses approximate matching with the aggressive
// perturbation profile (more noise, bigger shifts, frequent occlusion).
func E11Robustness(s Scale) (Report, error) {
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
			dev, err := runSingle(deviceConfig{Name: "main", Spec: spec, Engine: core.DefaultConfig(), Seed: s.Seed})
			if err != nil {
				return Report{}, fmt.Errorf("%s hard=%v: %w", spec.Name, hard, err)
			}
			baseDev, err := runSingle(deviceConfig{Name: "main", Spec: spec, Engine: baseline(core.ModeNoCache), Seed: s.Seed})
			if err != nil {
				return Report{}, fmt.Errorf("%s hard=%v base: %w", spec.Name, hard, err)
			}
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
	return report, nil
}

// E12LossyNetwork degrades the device-to-device links and measures how
// gracefully the peer gate fails: collaboration should fade, never
// hurt correctness.
func E12LossyNetwork(s Scale) (Report, error) {
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
		group, err := runGroup(crowd(spec, s.Seed+555, 2, "helper", func(i int) trace.Spec {
			return trace.WalkingTour(s.Frames, s.Seed+int64(i+1)*13)
		}, core.DefaultConfig(), s, 7), s.Seed, link)
		if err != nil {
			return Report{}, fmt.Errorf("loss %v: %w", loss, err)
		}
		stats := group[0].engine.Stats()
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
	return report, nil
}

// E16DigestFilter measures the peer-coverage digest: with many peers
// holding disjoint content, the digest prefilter should cut per-query
// network traffic sharply while preserving nearly every hit.
func E16DigestFilter(s Scale) (Report, error) {
	const (
		dim      = 16
		peers    = 8
		queryCnt = 200
	)
	rng := rand.New(rand.NewSource(s.Seed))
	net, err := simnet.New(simnet.LinkProfile{Latency: 5 * time.Millisecond}, s.Seed)
	if err != nil {
		return Report{}, err
	}
	// Each peer owns one region of feature space.
	centers := make([]feature.Vector, peers)
	names, _, err := peerFleet(net, simclock.NewVirtual(time.Unix(0, 0)), peers, 64, 24, 0.03, rng,
		func(i int) (feature.Vector, string) {
			centers[i] = randUnitVec(rng, dim)
			return centers[i], fmt.Sprintf("class-%d", i)
		})
	if err != nil {
		return Report{}, err
	}
	queries := make([]feature.Vector, queryCnt)
	for i := range queries {
		queries[i] = perturb(centers[rng.Intn(peers)], rng, 0.03)
	}

	run := func(useDigests bool) (hits, sent, skipped int, err error) {
		client, err := dial("main", net, p2p.DefaultClientConfig())
		if err != nil {
			return 0, 0, 0, err
		}
		client.SetPeers(names)
		if useDigests {
			for _, peer := range names {
				if _, _, err := client.FetchDigest(peer); err != nil {
					return 0, 0, 0, err
				}
			}
		}
		before, _ := net.Stats()
		for _, q := range queries {
			_, _, found, err := client.Query(q)
			if err != nil {
				return 0, 0, 0, err
			}
			if found {
				hits++
			}
		}
		after, _ := net.Stats()
		return hits, after - before, client.SkippedQueries(), nil
	}
	report := Report{
		ID:      "E16",
		Title:   "Peer coverage digests (8 peers with disjoint content, 200 queries)",
		Headers: []string{"mode", "peer-hits", "messages", "queries-skipped"},
		Notes: []string{
			"digests let the requester skip peers that cannot answer; hits are preserved at a fraction of the traffic",
		},
	}
	for _, useDigests := range []bool{false, true} {
		hits, msgs, skipped, err := run(useDigests)
		if err != nil {
			return Report{}, err
		}
		mode := "no digests"
		if useDigests {
			mode = "with digests"
		}
		report.Rows = append(report.Rows, []string{
			mode,
			fmt.Sprintf("%d", hits),
			fmt.Sprintf("%d", msgs),
			fmt.Sprintf("%d", skipped),
		})
	}
	return report, nil
}

// E15LatencyCDF renders the latency distribution (figure-style series):
// one row per percentile, one column per system. The distribution is
// the cache's signature: a mass of sub-millisecond gate hits with an
// inference-cost tail whose height is the miss rate.
func E15LatencyCDF(s Scale) (Report, error) {
	systems := []system{
		{name: "no-cache", cfg: baseline(core.ModeNoCache)},
		{name: "naive-skip", cfg: baseline(core.ModeNaiveSkip)},
		{name: "approx", cfg: core.DefaultConfig()},
	}
	devs, err := runStationary(s, systems)
	if err != nil {
		return Report{}, err
	}
	report := Report{
		ID:      "E15",
		Title:   "Frame latency distribution (stationary-heavy)",
		Headers: []string{"percentile"},
		Notes: []string{
			"the cached systems are bimodal: sub-ms reuse for ~95% of frames, full inference cost in the tail",
		},
	}
	for _, sys := range systems {
		report.Headers = append(report.Headers, sys.name)
	}
	for _, p := range []float64{10, 25, 50, 75, 90, 95, 99, 100} {
		row := []string{fmt.Sprintf("p%g", p)}
		for _, dev := range devs {
			row = append(row, fmtDur(dev.lat.percentile(p)))
		}
		report.Rows = append(report.Rows, row)
	}
	return report, nil
}

// E14GateGrid completes the ablation story: every combination of the
// cheap gates on/off, plus the keyframe-library size, on one workload.
func E14GateGrid(s Scale) (Report, error) {
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
		dev, err := runSingle(deviceConfig{Name: "main", Spec: spec, Engine: cfg, Seed: s.Seed})
		if err != nil {
			return Report{}, fmt.Errorf("%s: %w", v.name, err)
		}
		stats := dev.engine.Stats()
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
	return report, nil
}

// E13Battery translates per-frame energy into recognition time on one
// charge of a typical phone battery.
func E13Battery(s Scale) (Report, error) {
	phone := battery.TypicalPhone()
	systems := []system{
		{name: "no-cache", cfg: baseline(core.ModeNoCache)},
		{name: "approx", cfg: core.DefaultConfig()},
	}
	devs, err := runStationary(s, systems)
	if err != nil {
		return Report{}, err
	}
	report := Report{
		ID:    "E13",
		Title: "Continuous recognition on one battery charge (typical phone, 15 fps)",
		Headers: []string{"system", "energy/frame (mJ)", "frames/charge", "runtime/charge",
			"vs no-cache"},
		Notes: []string{
			fmt.Sprintf("battery: %.0f mAh × %.2f V, %.0f%% budgeted to recognition",
				phone.CapacityMAh, phone.VoltageV, phone.RecognitionShare*100),
		},
	}
	var baseRuntime time.Duration
	for i, dev := range devs {
		stats := dev.engine.Stats()
		perFrame := stats.EnergyMJ() / float64(stats.Frames())
		runtime := phone.RuntimeOnCharge(perFrame, dev.work.Spec.FPS)
		gain := "-"
		if i == 0 {
			baseRuntime = runtime
		} else if baseRuntime > 0 {
			gain = fmt.Sprintf("%.1f×", float64(runtime)/float64(baseRuntime))
		}
		report.Rows = append(report.Rows, []string{
			systems[i].name,
			fmtF(perFrame),
			fmt.Sprintf("%.0f", phone.FramesOnCharge(perFrame)),
			runtime.Round(time.Minute).String(),
			gain,
		})
	}
	return report, nil
}

// E17PeerChurn measures why re-probing the peer set matters: peers
// come and go (devices leave the neighborhood), and a requester with a
// stale peer list keeps paying radio timeouts on dead peers. The
// maintained client re-probes between rounds (Client.Probe) and sheds
// them.
func E17PeerChurn(s Scale) (Report, error) {
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

	run := func(maintained bool) (meanCost time.Duration, hits int, err error) {
		net, err := simnet.New(simnet.LinkProfile{Latency: 5 * time.Millisecond}, s.Seed)
		if err != nil {
			return 0, 0, err
		}
		net.SetDeadCost(80 * time.Millisecond) // radio timeout on dead peers
		clock := simclock.NewVirtual(time.Unix(0, 0))
		names, services, err := peerFleet(net, clock, peerCnt, 64, 16, 0.03, rng,
			func(int) (feature.Vector, string) { return center, "class-0" })
		if err != nil {
			return 0, 0, err
		}
		// The breaker is disabled here so the experiment isolates what
		// re-probing alone buys; the resilience layer's own effect is
		// measured by E18.
		ccfg := p2p.DefaultClientConfig()
		ccfg.DisableBreaker = true
		client, err := dial("main", net, ccfg)
		if err != nil {
			return 0, 0, err
		}
		client.SetPeers(names)

		var total time.Duration
		n := 0
		down := -1
		for round := 0; round < rounds; round++ {
			// Churn: the previous casualty returns, a new one leaves.
			if down >= 0 {
				if err := p2p.RegisterService(net, services[down]); err != nil {
					return 0, 0, err
				}
			}
			down = round % peerCnt
			net.Unregister(simnet.NodeID(names[down]))
			if maintained {
				client.Probe("main", names)
			}
			for _, q := range queries {
				_, cost, found, err := client.Query(q)
				if err != nil {
					return 0, 0, err
				}
				if found {
					hits++
				}
				total += cost
				n++
			}
		}
		return total / time.Duration(n), hits, nil
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
		mean, hits, err := run(maintained)
		if err != nil {
			return Report{}, err
		}
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
	return report, nil
}

// E18ChaosResilience crashes every peer mid-session and heals them
// later, comparing the guarded client (breaker + per-frame budget)
// against a fully unguarded one on the crash-window latency. The
// bound the resilience layer must meet: crash-window mean within 10%
// of the no-peers baseline.
func E18ChaosResilience(s Scale) (Report, error) {
	s.Frames = max(s.Frames, chaosMinFrames)
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
		res, err := runChaos(s, guarded)
		if err != nil {
			return Report{}, err
		}
		base := res.Baseline[phaseCrash].Mean
		over := "n/a"
		if base > 0 {
			over = fmtPct(float64(res.Run[phaseCrash].Mean)/float64(base) - 1)
		}
		trips, recoveries := res.Stats.BreakerEvents()
		report.Rows = append(report.Rows, []string{
			name,
			fmtDur(res.Run[phaseCrash].Mean),
			over,
			fmt.Sprintf("%d / %d", res.Run[phasePre].PeerHits, res.Run[phaseHeal].PeerHits),
			fmt.Sprintf("%d", trips),
			fmt.Sprintf("%d", recoveries),
			fmt.Sprintf("%d", res.Stats.DegradedFrames()),
		})
	}
	return report, nil
}
