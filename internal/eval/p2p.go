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

// E25 — bandwidth-constrained peer sharing. The comms stack (the wire
// codec's int8 quantized vectors, epoch-delta digests, query
// coalescing, gossip batching) is measured on simulated links from a
// fraction of the default 3 MB/s down, on deterministic links (no loss,
// no jitter). cmd/benchgate gates bytes/frame against what the deleted
// float64 protocol paid for the same workload, at no hit-rate loss.

// The float64 protocol (fixed-width fields, 8 B per vector dimension,
// full digest refetches, no coalescing or batching) as last measured at
// commit 8eee810 on the default E25 config: 1 244 664 B sent + 151 630 B
// received over 1 200 session-frames, every query a peer hit, identical
// at all three bandwidths. PR 22 deleted that protocol; these figures
// are its record, so a run at another config still divides by them.
const (
	legacyBytesPerFrame = (1244664 + 151630) / 1200.0 // 1163.58
	legacyHitRate       = 1.0
)

// The E25 workload's shape.
const (
	// p2pNodes is how many peer services populate the mesh.
	p2pNodes = 4
	// p2pSessions is how many pool sessions observe each scene frame:
	// they issue the identical query vector, which is exactly the
	// duplicate traffic coalescing exists to absorb.
	p2pSessions = 3
	// p2pFrames is the scene-frame count per run (Scale.Frames when
	// that is smaller).
	p2pFrames = 400
	p2pDim    = 32
	// p2pPerNode is the warm cache entries per peer.
	p2pPerNode = 48
	// p2pGossipEvery inserts (and gossips) one fresh result every N
	// frames; p2pDigestEvery refreshes every peer's coverage digest
	// every N frames.
	p2pGossipEvery = 4
	p2pDigestEvery = 50
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
	// PeerHitRate is accepted peer answers over session-frames.
	PeerHitRate float64 `json:"peer_hit_rate"`
	// MeanLatencyMS / P95LatencyMS summarize per-session-frame peer
	// query cost (coalesced replays cost zero — that is the point).
	MeanLatencyMS     float64 `json:"mean_latency_ms"`
	P95LatencyMS      float64 `json:"p95_latency_ms"`
	CoalescedInFlight int64   `json:"coalesced_in_flight"`
	CoalescedCached   int64   `json:"coalesced_cached"`
	Batches           int64   `json:"batches"`
	AvgBatchItems     float64 `json:"avg_batch_items"`
	// DigestBytes is the digest-refresh share of the traffic.
	DigestBytes int64 `json:"digest_bytes"`
}

// P2PPoint is one bandwidth of the sweep.
type P2PPoint struct {
	BandwidthMBps float64   `json:"bandwidth_mbps"`
	Compact       P2PResult `json:"compact"`
	// BytesReduction is legacyBytesPerFrame over Compact.BytesPerFrame.
	BytesReduction float64 `json:"bytes_reduction"`
}

// P2PReport is the benchmark's JSON artifact (BENCH_p2p.json).
type P2PReport struct {
	Nodes    int        `json:"nodes"`
	Sessions int        `json:"sessions"`
	Frames   int        `json:"frames"`
	Dim      int        `json:"dim"`
	Points   []P2PPoint `json:"points"`
	// Gate fields, measured at the most constrained bandwidth;
	// HitLegacy is the legacyHitRate constant.
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
	scene func(i int) (feature.Vector, string)) ([]string, []*p2p.Service, error) {
	names := make([]string, n)
	services := make([]*p2p.Service, n)
	for i := range names {
		names[i] = fmt.Sprintf("peer-%d", i)
		center, label := scene(i)
		idx, err := lsh.NewExact(len(center))
		if err != nil {
			return nil, nil, err
		}
		st, err := cachestore.New(cachestore.Config{Capacity: capacity}, idx, clock)
		if err != nil {
			return nil, nil, err
		}
		for j := 0; j < perNode; j++ {
			if _, err := st.Insert(perturb(center, rng, sigma), label, 0.9, "dnn", time.Millisecond); err != nil {
				return nil, nil, err
			}
		}
		if services[i], err = p2p.NewService(p2p.DefaultServiceConfig(names[i]), st); err != nil {
			return nil, nil, err
		}
		if err := p2p.RegisterService(net, services[i]); err != nil {
			return nil, nil, err
		}
	}
	return names, services, nil
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

// runP2PAt replays the workload on a fresh deterministic network at
// one bandwidth.
func runP2PAt(seed int64, bwMBps float64, centers []feature.Vector, w p2pWorkload) (P2PResult, error) {
	var res P2PResult
	link := simnet.LinkProfile{
		Latency:      6 * time.Millisecond,
		BandwidthBps: int64(bwMBps * (1 << 20)),
	}
	net, err := simnet.New(link, seed)
	if err != nil {
		return res, err
	}
	clock := simclock.NewVirtual(time.Unix(0, 0))
	names, _, err := peerFleet(net, clock, p2pNodes, 4*p2pPerNode, p2pPerNode, 0.02, rand.New(rand.NewSource(seed+1)),
		func(i int) (feature.Vector, string) { return centers[i], fmt.Sprintf("class-%d", i) })
	if err != nil {
		return res, err
	}
	ccfg := p2p.DefaultClientConfig()
	ccfg.Clock = clock
	ccfg.CoalesceTTL = 150 * time.Millisecond
	ccfg.GossipBatch = 8
	ccfg.GossipFlush = 500 * time.Millisecond
	client, err := dial("main", net, ccfg)
	if err != nil {
		return res, err
	}
	client.SetPeers(names)
	// Warm-up: ping every peer, then fetch its initial digest.
	for _, peer := range names {
		if _, _, err := client.Ping("main", peer); err != nil {
			return res, fmt.Errorf("ping %s: %w", peer, err)
		}
		if _, _, err := client.FetchDigest(peer); err != nil {
			return res, fmt.Errorf("digest %s: %w", peer, err)
		}
	}

	frames := len(w.queries)
	sessionFrames := frames * p2pSessions
	costs := make([]time.Duration, 0, sessionFrames)
	hits := 0
	gossipIdx := 0
	for f := 0; f < frames; f++ {
		clock.Advance(33 * time.Millisecond)
		for s := 0; s < p2pSessions; s++ {
			out, err := client.QueryFrame(w.queries[f], 0)
			if err != nil {
				return res, err
			}
			if out.Found {
				hits++
			}
			costs = append(costs, out.Cost)
		}
		if (f+1)%p2pGossipEvery == 0 && gossipIdx < len(w.gossipVecs) {
			if _, err := client.Gossip(w.gossipVecs[gossipIdx], w.gossipLbls[gossipIdx], 0.9, 5*time.Millisecond); err != nil {
				return res, err
			}
			gossipIdx++
		}
		if (f+1)%p2pDigestEvery == 0 {
			for _, peer := range names {
				if _, _, err := client.FetchDigest(peer); err != nil {
					return res, fmt.Errorf("digest refresh %s: %w", peer, err)
				}
			}
		}
	}
	if _, err := client.FlushGossip(); err != nil {
		return res, err
	}

	ws := client.WireStats()
	res.SentBytes = ws.SentBytes
	res.RecvBytes = ws.RecvBytes
	res.Messages = ws.SentMsgs
	res.BytesPerFrame = float64(ws.SentBytes+ws.RecvBytes) / float64(sessionFrames)
	res.PeerHitRate = float64(hits) / float64(sessionFrames)
	res.CoalescedInFlight = ws.CoalescedInFlight
	res.CoalescedCached = ws.CoalescedCached
	res.Batches = ws.Batches
	res.AvgBatchItems = ws.AvgBatch()
	for kind, ks := range ws.Kinds {
		switch kind {
		case "digest-delta-req", "digest-delta-resp":
			res.DigestBytes += ks.SentBytes + ks.RecvBytes
		}
	}
	var total time.Duration
	for _, c := range costs {
		total += c
	}
	res.MeanLatencyMS = float64(total.Microseconds()) / float64(len(costs)) / 1e3
	sort.Slice(costs, func(i, j int) bool { return costs[i] < costs[j] })
	res.P95LatencyMS = float64(costs[(len(costs)*95)/100].Microseconds()) / 1e3
	return res, nil
}

// runP2P sweeps link bandwidth, replaying the same workload at each.
func runP2P(s Scale) (P2PReport, error) {
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
	for _, bw := range p2pBandwidths {
		compact, err := runP2PAt(s.Seed, bw, centers, w)
		if err != nil {
			return P2PReport{}, fmt.Errorf("@ %.2f MB/s: %w", bw, err)
		}
		pt := P2PPoint{BandwidthMBps: bw, Compact: compact}
		if compact.BytesPerFrame > 0 {
			pt.BytesReduction = legacyBytesPerFrame / compact.BytesPerFrame
		}
		report.Points = append(report.Points, pt)
	}
	gate := report.Points[0] // most constrained bandwidth
	report.ConstrainedMBps = gate.BandwidthMBps
	report.BytesReduction = gate.BytesReduction
	report.HitLegacy = legacyHitRate
	report.HitCompact = gate.Compact.PeerHitRate
	return report, nil
}

// E25P2PWire is the bandwidth-constrained peer-sharing experiment.
func E25P2PWire(s Scale) (Report, error) {
	rep, err := runP2P(s)
	if err != nil {
		return Report{}, err
	}
	report := Report{
		ID: "E25",
		Title: fmt.Sprintf("Compact P2P wire protocol (%d peers, %d sessions, %d frames, dim %d)",
			rep.Nodes, rep.Sessions, rep.Frames, rep.Dim),
		Headers: []string{"bandwidth", "bytes/frame", "hit-rate", "mean-ms", "p95-ms", "coalesced", "batches"},
		Notes: []string{
			"quantized codec + delta digests + query coalescing + gossip batching",
			fmt.Sprintf("at %.2f MB/s: %.1fx fewer bytes/frame than the deleted float64 protocol's recorded %.1f (default config), hit rate %.3f -> %.3f",
				rep.ConstrainedMBps, rep.BytesReduction, legacyBytesPerFrame, rep.HitLegacy, rep.HitCompact),
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
			fmt.Sprintf("%d", m.CoalescedInFlight+m.CoalescedCached),
			fmt.Sprintf("%d", m.Batches),
		})
	}
	return report, nil
}
