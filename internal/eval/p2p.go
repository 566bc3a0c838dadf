package eval

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/p2p"
	"approxcache/internal/simclock"
	"approxcache/internal/simnet"
)

// E25 — bandwidth-constrained peer sharing. The wire codec's int8
// quantized vectors are measured on simulated links from a fraction of
// the default 3 MB/s down, on deterministic links (no loss, no jitter).
// Each bandwidth's exchanges are also priced as a float64 protocol would
// send them; cmd/benchgate gates bytes/frame against that price.

// The E25 workload's shape.
const (
	// p2pNodes is how many peer services populate the mesh.
	p2pNodes = 4
	// p2pSessions is how many pool sessions observe each scene frame:
	// each asks the peers for the same query vector itself.
	p2pSessions = 3
	// p2pFrames is the scene-frame count per run (Scale.Frames when
	// that is smaller).
	p2pFrames = 400
	p2pDim    = 32
	// p2pPerNode is the warm cache entries per peer.
	p2pPerNode = 48
	// p2pGossipEvery inserts (and gossips) one fresh result every N
	// frames.
	p2pGossipEvery = 4
	// p2pFloat64Surcharge is what a float64 protocol adds per vector on
	// the wire: 8 B per component in place of the codec's 1-byte int8
	// code per component and its 9-byte header (uvarint dim, float32
	// scale, float32 offset).
	p2pFloat64Surcharge = 8*p2pDim - (p2pDim + 9)
)

// p2pBandwidths is the link-bandwidth sweep in MB/s, most constrained
// first.
var p2pBandwidths = []float64{0.5, 1, 3}

// P2PResult is the measurements at one bandwidth.
type P2PResult struct {
	// BytesPerFrame is total client wire traffic (sent + received)
	// divided by session-frames (Frames × Sessions).
	BytesPerFrame float64 `json:"bytes_per_frame"`
	SentBytes     int64   `json:"sent_bytes"`
	RecvBytes     int64   `json:"recv_bytes"`
	Messages      int64   `json:"messages"`
	// Vectors is how many sent messages carried a feature vector:
	// every query and gossip frame, retries included.
	Vectors int64 `json:"vectors"`
	// PeerHitRate is accepted peer answers over session-frames.
	PeerHitRate float64 `json:"peer_hit_rate"`
	// MeanLatencyMS / P95LatencyMS summarize per-session-frame peer
	// query cost.
	MeanLatencyMS float64 `json:"mean_latency_ms"`
	P95LatencyMS  float64 `json:"p95_latency_ms"`
}

// P2PPoint is one bandwidth of the sweep.
type P2PPoint struct {
	BandwidthMBps float64   `json:"bandwidth_mbps"`
	Compact       P2PResult `json:"compact"`
	// Float64BytesPerFrame prices Compact's exchanges as a float64
	// protocol would send them: the same messages, each vector
	// p2pFloat64Surcharge bytes larger.
	Float64BytesPerFrame float64 `json:"float64_bytes_per_frame"`
	// BytesReduction is Float64BytesPerFrame over Compact.BytesPerFrame.
	BytesReduction float64 `json:"bytes_reduction"`
}

// P2PReport is the benchmark's JSON artifact (BENCH_p2p.json).
type P2PReport struct {
	Nodes    int        `json:"nodes"`
	Sessions int        `json:"sessions"`
	Frames   int        `json:"frames"`
	Dim      int        `json:"dim"`
	Points   []P2PPoint `json:"points"`
	// Gate fields, measured at the most constrained bandwidth. The
	// float64 side is priced from the same run, so HitLegacy is
	// HitCompact; the codec's effect on hits is checked by the p2p
	// package's quantized-vote differential test.
	ConstrainedMBps float64 `json:"constrained_mbps"`
	BytesReduction  float64 `json:"bytes_reduction"`
	HitLegacy       float64 `json:"hit_legacy"`
	HitCompact      float64 `json:"hit_compact"`
}

// peerFleet registers n warm peers on net, named peer-0 … peer-(n-1).
// Peer i is an exact-index store of the given capacity, pre-filled with
// perNode unit-length perturbations (σ sigma) of the vector scene(i)
// returns under its label, behind a p2p service.
func peerFleet(net *simnet.Network, clock simclock.Clock, n, capacity, perNode int, sigma float64, rng *rand.Rand,
	scene func(i int) (feature.Vector, string)) ([]string, []*p2p.Service) {
	names := make([]string, n)
	services := make([]*p2p.Service, n)
	for i := range names {
		names[i] = fmt.Sprintf("peer-%d", i)
		center, label := scene(i)
		st := must(cachestore.New(cachestore.Config{Capacity: capacity}, must(lsh.NewExact(len(center))), clock))
		for j := 0; j < perNode; j++ {
			must(st.Insert(perturb(center, rng, sigma), label, 0.9, "dnn", time.Millisecond))
		}
		services[i] = must(p2p.NewService(p2p.DefaultServiceConfig(names[i]), st))
		check(p2p.RegisterService(net, services[i]))
	}
	return names, services
}

// p2pWorkload is the pre-generated deterministic workload every
// bandwidth replays: per-frame query vectors (shared by all sessions of
// a frame) and the gossip stream.
type p2pWorkload struct {
	queries    []feature.Vector
	gossipVecs []feature.Vector
	gossipLbls []string
}

func buildP2PWorkload(frames int, centers []feature.Vector, rng *rand.Rand) p2pWorkload {
	var w p2pWorkload
	w.queries = make([]feature.Vector, frames)
	for f := 0; f < frames; f++ {
		w.queries[f] = perturb(centers[rng.Intn(p2pNodes)], rng, 0.02)
		if (f+1)%p2pGossipEvery == 0 {
			g := rng.Intn(p2pNodes)
			w.gossipVecs = append(w.gossipVecs, perturb(centers[g], rng, 0.02))
			w.gossipLbls = append(w.gossipLbls, fmt.Sprintf("class-%d", g))
		}
	}
	return w
}

// runP2PAt replays the workload on a fresh deterministic network at one
// bandwidth.
func runP2PAt(seed int64, bwMBps float64, centers []feature.Vector, w p2pWorkload) P2PResult {
	var res P2PResult
	link := simnet.LinkProfile{
		Latency:      6 * time.Millisecond,
		BandwidthBps: int64(bwMBps * (1 << 20)),
	}
	net := must(simnet.New(link, seed))
	clock := simclock.NewVirtual(time.Unix(0, 0))
	names, _ := peerFleet(net, clock, p2pNodes, 4*p2pPerNode, p2pPerNode, 0.02, rand.New(rand.NewSource(seed+1)),
		func(i int) (feature.Vector, string) { return centers[i], fmt.Sprintf("class-%d", i) })
	ccfg := p2p.DefaultClientConfig()
	ccfg.Clock = clock
	client := must(p2p.JoinSimnet(net, "main", nil, ccfg))
	client.SetPeers(names)
	// Warm-up: ping every peer.
	for _, peer := range names {
		_, _, err := client.Ping("main", peer)
		check(err)
	}

	frames := len(w.queries)
	sessionFrames := frames * p2pSessions
	costs := make([]time.Duration, 0, sessionFrames)
	hits := 0
	gossipIdx := 0
	for f := 0; f < frames; f++ {
		clock.Advance(33 * time.Millisecond)
		for s := 0; s < p2pSessions; s++ {
			out := must(client.QueryFrame(w.queries[f], 0))
			if out.Found {
				hits++
			}
			costs = append(costs, out.Cost)
		}
		if (f+1)%p2pGossipEvery == 0 && gossipIdx < len(w.gossipVecs) {
			must(client.Gossip(w.gossipVecs[gossipIdx], w.gossipLbls[gossipIdx], 0.9, 5*time.Millisecond))
			gossipIdx++
		}
	}

	ws := client.WireStats()
	res.SentBytes = ws.SentBytes
	res.RecvBytes = ws.RecvBytes
	res.Messages = ws.SentMsgs
	res.Vectors = ws.Kinds[p2p.KindQuery.String()].SentMsgs + ws.Kinds[p2p.KindGossip.String()].SentMsgs
	res.BytesPerFrame = float64(res.SentBytes+res.RecvBytes) / float64(sessionFrames)
	res.PeerHitRate = float64(hits) / float64(sessionFrames)
	var total time.Duration
	for _, c := range costs {
		total += c
	}
	res.MeanLatencyMS = float64(total.Microseconds()) / float64(len(costs)) / 1e3
	sort.Slice(costs, func(i, j int) bool { return costs[i] < costs[j] })
	res.P95LatencyMS = float64(costs[(len(costs)*95)/100].Microseconds()) / 1e3
	return res
}

// runP2P sweeps link bandwidth, replaying the same workload at each and
// pricing each run's exchanges at float64 width.
func runP2P(s Scale) P2PReport {
	rng := rand.New(rand.NewSource(s.Seed))
	centers := make([]feature.Vector, p2pNodes)
	for i := range centers {
		centers[i] = randUnitVec(rng, p2pDim)
	}
	w := buildP2PWorkload(min(s.Frames, p2pFrames), centers, rng)

	report := P2PReport{
		Nodes:    p2pNodes,
		Sessions: p2pSessions,
		Frames:   len(w.queries),
		Dim:      p2pDim,
	}
	sessionFrames := float64(len(w.queries) * p2pSessions)
	for _, bw := range p2pBandwidths {
		compact := runP2PAt(s.Seed, bw, centers, w)
		pt := P2PPoint{
			BandwidthMBps:        bw,
			Compact:              compact,
			Float64BytesPerFrame: float64(compact.SentBytes+compact.Vectors*p2pFloat64Surcharge+compact.RecvBytes) / sessionFrames,
		}
		if compact.BytesPerFrame > 0 {
			pt.BytesReduction = pt.Float64BytesPerFrame / compact.BytesPerFrame
		}
		report.Points = append(report.Points, pt)
	}
	gate := report.Points[0] // most constrained bandwidth
	report.ConstrainedMBps = gate.BandwidthMBps
	report.BytesReduction = gate.BytesReduction
	report.HitLegacy = gate.Compact.PeerHitRate
	report.HitCompact = gate.Compact.PeerHitRate
	return report
}

// E25P2PWire is the bandwidth-constrained peer-sharing experiment.
func E25P2PWire(s Scale) Report {
	rep := runP2P(s)
	report := Report{
		ID: "E25",
		Title: fmt.Sprintf("Compact P2P wire protocol (%d peers, %d sessions, %d frames, dim %d)",
			rep.Nodes, rep.Sessions, rep.Frames, rep.Dim),
		Headers: []string{"bandwidth", "bytes/frame", "hit-rate", "mean-ms", "p95-ms", "float64-bytes/frame"},
		Notes: []string{
			"quantized codec; float64-bytes/frame prices the same exchanges with each vector at 8 B per component",
			fmt.Sprintf("at %.2f MB/s: %.2fx fewer bytes/frame than float64 vectors, hit rate %.3f",
				rep.ConstrainedMBps, rep.BytesReduction, rep.HitCompact),
		},
		Data: rep,
	}
	for _, pt := range rep.Points {
		m := pt.Compact
		report.Rows = append(report.Rows, []string{
			fmt.Sprintf("%.2f MB/s", pt.BandwidthMBps),
			fmt.Sprintf("%.1f", m.BytesPerFrame),
			fmt.Sprintf("%.3f", m.PeerHitRate),
			fmt.Sprintf("%.2f", m.MeanLatencyMS),
			fmt.Sprintf("%.2f", m.P95LatencyMS),
			fmt.Sprintf("%.1f", pt.Float64BytesPerFrame),
		})
	}
	return report
}
