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

// P2PConfig parameterizes the bandwidth-constrained peer benchmark.
type P2PConfig struct {
	// Nodes is how many peer services populate the mesh.
	Nodes int
	// Sessions is how many pool sessions observe each scene frame:
	// they issue the identical query vector, which is exactly the
	// duplicate traffic coalescing exists to absorb.
	Sessions int
	// Frames is the scene-frame count per run.
	Frames int
	// Dim is the feature dimension.
	Dim int
	// PerNode is the warm cache entries per peer.
	PerNode int
	// GossipEvery inserts (and gossips) one fresh result every N
	// frames.
	GossipEvery int
	// DigestEvery refreshes every peer's coverage digest every N
	// frames.
	DigestEvery int
	// BandwidthsMBps is the link-bandwidth sweep, most constrained
	// first.
	BandwidthsMBps []float64
	// Seed drives all randomness.
	Seed int64
}

func (c *P2PConfig) defaults() {
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.Sessions == 0 {
		c.Sessions = 3
	}
	if c.Frames == 0 {
		c.Frames = 400
	}
	if c.Dim == 0 {
		c.Dim = 32
	}
	if c.PerNode == 0 {
		c.PerNode = 48
	}
	if c.GossipEvery == 0 {
		c.GossipEvery = 4
	}
	if c.DigestEvery == 0 {
		c.DigestEvery = 50
	}
	if len(c.BandwidthsMBps) == 0 {
		c.BandwidthsMBps = []float64{0.5, 1, 3}
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// Validate reports whether the configuration is usable.
func (c P2PConfig) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("eval: p2p needs >= 2 nodes, got %d", c.Nodes)
	}
	if c.Sessions < 1 || c.Frames < 1 || c.Dim < 1 || c.PerNode < 1 {
		return fmt.Errorf("eval: p2p sessions/frames/dim/per-node must be positive")
	}
	if c.GossipEvery < 1 || c.DigestEvery < 1 {
		return fmt.Errorf("eval: p2p gossip/digest intervals must be positive")
	}
	for _, bw := range c.BandwidthsMBps {
		if bw <= 0 {
			return fmt.Errorf("eval: p2p bandwidth must be positive, got %v", bw)
		}
	}
	return nil
}

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

// p2pWorkload is the pre-generated deterministic workload every
// bandwidth replays: per-frame query vectors (shared by all sessions of
// a frame)
// and the gossip stream.
type p2pWorkload struct {
	queries    []feature.Vector
	gossipVecs []feature.Vector
	gossipLbls []string
}

func buildP2PWorkload(cfg P2PConfig, centers []feature.Vector, rng *rand.Rand) p2pWorkload {
	var w p2pWorkload
	w.queries = make([]feature.Vector, cfg.Frames)
	for f := 0; f < cfg.Frames; f++ {
		node := rng.Intn(cfg.Nodes)
		v := perturb(centers[node], rng, 0.02)
		w.queries[f] = v
		if (f+1)%cfg.GossipEvery == 0 {
			g := rng.Intn(cfg.Nodes)
			w.gossipVecs = append(w.gossipVecs, perturb(centers[g], rng, 0.02))
			w.gossipLbls = append(w.gossipLbls, fmt.Sprintf("class-%d", g))
		}
	}
	return w
}

func perturb(center feature.Vector, rng *rand.Rand, sigma float64) feature.Vector {
	v := center.Clone()
	for d := range v {
		v[d] += rng.NormFloat64() * sigma
	}
	v.Normalize()
	return v
}

// runP2P replays the workload on a fresh deterministic network.
func runP2P(cfg P2PConfig, bwMBps float64, centers []feature.Vector, w p2pWorkload) (P2PResult, error) {
	var res P2PResult
	link := simnet.LinkProfile{
		Latency:      6 * time.Millisecond,
		BandwidthBps: int64(bwMBps * (1 << 20)),
	}
	net, err := simnet.New(link, cfg.Seed)
	if err != nil {
		return res, err
	}
	clock := simclock.NewVirtual(time.Unix(0, 0))
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	names := make([]string, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		names[i] = fmt.Sprintf("peer-%d", i)
		idx, err := lsh.NewExact(cfg.Dim)
		if err != nil {
			return res, err
		}
		st, err := cachestore.New(cachestore.Config{Capacity: 4 * cfg.PerNode}, idx, clock)
		if err != nil {
			return res, err
		}
		for j := 0; j < cfg.PerNode; j++ {
			v := perturb(centers[i], rng, 0.02)
			if _, err := st.Insert(v, fmt.Sprintf("class-%d", i), 0.9, "dnn", time.Millisecond); err != nil {
				return res, err
			}
		}
		svc, err := p2p.NewService(p2p.DefaultServiceConfig(names[i]), st)
		if err != nil {
			return res, err
		}
		if err := p2p.RegisterService(net, svc); err != nil {
			return res, err
		}
	}
	tr, err := p2p.NewSimnetTransport("main", net)
	if err != nil {
		return res, err
	}
	ccfg := p2p.DefaultClientConfig()
	ccfg.Clock = clock
	ccfg.CoalesceTTL = 150 * time.Millisecond
	ccfg.GossipBatch = 8
	ccfg.GossipFlush = 500 * time.Millisecond
	client, err := p2p.NewClient(ccfg, tr)
	if err != nil {
		return res, err
	}
	client.SetPeers(names)
	// Roster-style warm-up: ping every peer, then fetch initial digests.
	for _, peer := range names {
		if _, _, err := client.Ping("main", peer); err != nil {
			return res, fmt.Errorf("ping %s: %w", peer, err)
		}
		if _, _, err := client.FetchDigest(peer); err != nil {
			return res, fmt.Errorf("digest %s: %w", peer, err)
		}
	}

	sessionFrames := cfg.Frames * cfg.Sessions
	costs := make([]time.Duration, 0, sessionFrames)
	hits := 0
	gossipIdx := 0
	for f := 0; f < cfg.Frames; f++ {
		clock.Advance(33 * time.Millisecond)
		vec := w.queries[f]
		for s := 0; s < cfg.Sessions; s++ {
			out, err := client.QueryFrame(vec, 0)
			if err != nil {
				return res, err
			}
			if out.Found {
				hits++
			}
			costs = append(costs, out.Cost)
		}
		if (f+1)%cfg.GossipEvery == 0 && gossipIdx < len(w.gossipVecs) {
			if _, err := client.Gossip(w.gossipVecs[gossipIdx], w.gossipLbls[gossipIdx], 0.9, 5*time.Millisecond); err != nil {
				return res, err
			}
			gossipIdx++
		}
		if (f+1)%cfg.DigestEvery == 0 {
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

// RunP2P sweeps link bandwidth, replaying the same workload at each.
func RunP2P(cfg P2PConfig) (P2PReport, error) {
	cfg.defaults()
	if err := cfg.Validate(); err != nil {
		return P2PReport{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	centers := make([]feature.Vector, cfg.Nodes)
	for i := range centers {
		c := make(feature.Vector, cfg.Dim)
		for d := range c {
			c[d] = rng.NormFloat64()
		}
		c.Normalize()
		centers[i] = c
	}
	w := buildP2PWorkload(cfg, centers, rng)

	report := P2PReport{
		Nodes:    cfg.Nodes,
		Sessions: cfg.Sessions,
		Frames:   cfg.Frames,
		Dim:      cfg.Dim,
	}
	bws := append([]float64(nil), cfg.BandwidthsMBps...)
	sort.Float64s(bws)
	for _, bw := range bws {
		compact, err := runP2P(cfg, bw, centers, w)
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

// E25P2PWire is the experiment-registry wrapper around RunP2P.
func E25P2PWire(s Scale) (Report, error) {
	if err := s.validate(); err != nil {
		return Report{}, err
	}
	cfg := P2PConfig{Seed: s.Seed}
	cfg.defaults()
	if s.Frames < cfg.Frames {
		cfg.Frames = s.Frames
	}
	rep, err := RunP2P(cfg)
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
