package p2p

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/metrics"
	"approxcache/internal/simclock"
	"approxcache/internal/simnet"
)

// Transport moves encoded messages between this node and named peers.
// Implementations report the (real or simulated) time each exchange
// took so callers can charge it to their clock.
type Transport interface {
	// Call round-trips req to peer and returns the response payload.
	Call(peer string, req []byte) (resp []byte, rtt time.Duration, err error)
	// Send delivers a one-way payload to peer.
	Send(peer string, payload []byte) (cost time.Duration, err error)
}

// RemoteHit is the best answer obtained from the peer set.
type RemoteHit struct {
	// Peer names the peer that answered.
	Peer string
	// Label is the reused recognition label.
	Label string
	// Confidence is the peer's vote confidence.
	Confidence float64
	// Distance is the peer's best supporting distance.
	Distance float64
	// RTT is the round-trip time of the winning exchange.
	RTT time.Duration
}

// Observer receives resilience events as the client produces them, so
// the pipeline's session stats can surface them. All methods may be
// called concurrently; a nil observer is never invoked.
type Observer interface {
	// PeerTimeout fires when an exchange with peer overran its
	// deadline or the per-frame budget.
	PeerTimeout(peer string)
	// BreakerTrip fires when peer's circuit trips (or re-trips) open.
	BreakerTrip(peer string)
	// BreakerRecovery fires when peer's circuit closes again.
	BreakerRecovery(peer string)
}

// ClientConfig parameterizes the querying side. The peer policy itself
// — k, the answer radius, gossip attempts, health smoothing and the
// breaker's threshold, backoffs and jitter — is fixed (peertable.go).
type ClientConfig struct {
	// Clock drives breaker backoff, coalesce-cache expiry, and gossip
	// flush timing. Nil selects the wall clock; experiments inject
	// their virtual clock so these heal/expire in simulated time.
	Clock simclock.Clock
	// CoalesceTTL enables the peer-answer cache: a completed query
	// outcome — positive or negative — is replayed at zero wire cost
	// for identical vectors (same quantized code) arriving within the
	// TTL, so pool sessions observing the same scene share one RTT.
	// Zero disables the cache. In-flight coalescing (concurrent
	// identical queries joining one exchange) is always on.
	CoalesceTTL time.Duration
	// GossipBatch coalesces outgoing gossip into batches of up to
	// this many items per flush; <=1 sends each gossip immediately. A
	// flush reaches each peer as one GossipBatch message.
	GossipBatch int
	// GossipFlush bounds how long a queued gossip item waits for its
	// batch to fill (default 100ms when batching is enabled). Flushes
	// are lazy — checked on enqueue and on each QueryFrame — or
	// explicit via FlushGossip (E25 calls it after its last frame).
	GossipFlush time.Duration
	// DisableBreaker turns the circuit breaker off: every peer is
	// always admitted and reads closed. The chaos and churn
	// experiments' unguarded baselines set it.
	DisableBreaker bool
}

// Validate reports whether the configuration is usable.
func (c ClientConfig) Validate() error {
	if c.CoalesceTTL < 0 {
		return fmt.Errorf("p2p: CoalesceTTL must be non-negative, got %v", c.CoalesceTTL)
	}
	if c.GossipBatch < 0 || c.GossipBatch > MaxGossipBatch {
		return fmt.Errorf("p2p: GossipBatch must be in [0,%d], got %d", MaxGossipBatch, c.GossipBatch)
	}
	if c.GossipFlush < 0 {
		return fmt.Errorf("p2p: GossipFlush must be non-negative, got %v", c.GossipFlush)
	}
	return nil
}

// DefaultClientConfig returns the standard querying policy: wall clock,
// no answer cache, unbatched gossip, breaker on.
func DefaultClientConfig() ClientConfig { return ClientConfig{} }

// Client queries and gossips to a set of peers over a Transport.
//
// Client is the guarded side of the P2P reuse path: every exchange
// feeds the peer's record in one table — its health and its circuit
// breaker, which excludes a misbehaving peer from the fan-out until a
// backed-off half-open probe shows it healthy again. When every peer is
// open the client degrades to local-only operation at zero cost instead
// of stalling the frame. One mutex guards the table and everything
// else; Client is safe for concurrent use.
type Client struct {
	cfg       ClientConfig
	transport Transport
	clock     simclock.Clock
	wire      metrics.WireTally

	mu sync.Mutex
	// order is the configured peer set, in asking order; table holds the
	// record of every peer configured or contacted so far.
	order             []string
	table             map[string]*peer
	rng               *rand.Rand // breaker jitter, drawn in trip order
	trips, recoveries int
	degraded          int
	skipped           int
	flights           map[string]*flight
	answers           map[string]answerEntry
	answerQ           []string
	pending           []Gossip
	due               time.Time
	observer          Observer
}

// flight is one in-progress peer-set query that concurrent identical
// queries join instead of duplicating. out is written before done is
// closed, so followers read it race-free.
type flight struct {
	done chan struct{}
	out  QueryOutcome
}

// answerEntry is one TTL'd cached peer answer.
type answerEntry struct {
	out QueryOutcome
	exp time.Time
}

// maxAnswerCache bounds the TTL answer cache.
const maxAnswerCache = 512

// NewClient builds a client over transport.
func NewClient(cfg ClientConfig, transport Transport) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if transport == nil {
		return nil, fmt.Errorf("p2p: nil transport")
	}
	clock := cfg.Clock
	if clock == nil {
		clock = simclock.Real{}
	}
	return &Client{
		cfg:       cfg,
		transport: transport,
		clock:     clock,
		table:     make(map[string]*peer),
		rng:       rand.New(rand.NewSource(1)),
		flights:   make(map[string]*flight),
		answers:   make(map[string]answerEntry),
	}, nil
}

// WireStats returns this client's per-kind wire traffic and
// coalescing/batching counters.
func (c *Client) WireStats() metrics.WireStats { return c.wire.Snapshot() }

// encBufPool recycles encode buffers for the peer hot path.
var encBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 1024); return &b },
}

func getEncBuf() *[]byte { return encBufPool.Get().(*[]byte) }

func putEncBuf(p *[]byte) {
	*p = (*p)[:0]
	encBufPool.Put(p)
}

// SetObserver installs (or, with nil, removes) the resilience-event
// sink. The engine installs its session stats here.
func (c *Client) SetObserver(o Observer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observer = o
}

// peerLocked returns name's record, creating it on first mention.
func (c *Client) peerLocked(name string) *peer {
	p := c.table[name]
	if p == nil {
		p = &peer{}
		c.table[name] = p
	}
	return p
}

// succeedLocked books a success on p's circuit and reports whether it
// closed an open or half-open one.
func (c *Client) succeedLocked(p *peer) bool {
	if c.cfg.DisableBreaker || !p.circuit.onSuccess() {
		return false
	}
	c.recoveries++
	return true
}

// stateLocked is p's circuit state at now.
func (c *Client) stateLocked(p *peer, now time.Time) BreakerState {
	if c.cfg.DisableBreaker {
		return StateClosed
	}
	return p.circuit.read(now)
}

// record books one exchange outcome into the peer's health and circuit
// in one critical section, then tells the observer.
func (c *Client) record(name string, rtt time.Duration, err error) {
	class := Classify(err)
	var now time.Time
	if class.Failure() {
		now = c.clock.Now()
	}
	c.mu.Lock()
	p := c.peerLocked(name)
	p.health.observe(rtt, class)
	var tripped, recovered bool
	switch {
	case c.cfg.DisableBreaker:
	case class.Failure():
		if tripped = p.circuit.onFailure(now, c.rng); tripped {
			c.trips++
		}
	default:
		recovered = c.succeedLocked(p)
	}
	obs := c.observer
	c.mu.Unlock()
	if obs == nil {
		return
	}
	if class == ErrClassTimeout {
		obs.PeerTimeout(name)
	}
	if tripped {
		obs.BreakerTrip(name)
	}
	if recovered {
		obs.BreakerRecovery(name)
	}
}

// admitLocked appends to dst every configured peer whose circuit admits
// a call at now, claiming half-open probes: the caller must contact
// every peer it returns. With vec non-nil, a peer whose digest rules
// vec out is skipped instead, and a probe it was admitted as resolves
// as a success without an exchange.
func (c *Client) admitLocked(dst []string, now time.Time, vec feature.Vector) []string {
	for _, name := range c.order {
		p := c.table[name]
		if !c.cfg.DisableBreaker && !p.circuit.allow(now) {
			continue
		}
		if vec != nil && !p.digestAllows(vec) {
			c.skipped++
			c.succeedLocked(p)
			continue
		}
		dst = append(dst, name)
	}
	return dst
}

// degradedLocked reports whether peers are configured but no circuit
// would admit a call at now.
func (c *Client) degradedLocked(now time.Time) bool {
	if c.cfg.DisableBreaker {
		return false
	}
	for _, name := range c.order {
		if c.table[name].circuit.admits(now) {
			return false
		}
	}
	return len(c.order) > 0
}

// FetchDigest asks peer for its coverage digest and caches it, so
// subsequent Queries can skip the peer when it cannot possibly help.
// Call it periodically (the digest staleness trade-off is the usual
// one: a stale digest only costs missed hits or wasted queries).
// The exchange is an epoch delta: the first fetch (or one the peer can
// no longer serve a delta for) returns the full digest, later ones only
// the centroids added or removed since, applied to the local mirror.
func (c *Client) FetchDigest(name string) (Digest, time.Duration, error) {
	c.mu.Lock()
	since := c.peerLocked(name).mirror.epoch
	c.mu.Unlock()
	bufp := getEncBuf()
	req, err := AppendEncode(*bufp, DigestDeltaReq{Since: since})
	if err != nil {
		putEncBuf(bufp)
		return Digest{}, 0, fmt.Errorf("encode digest delta req: %w", err)
	}
	c.wire.Sent(KindDigestDeltaReq.String(), len(req))
	respB, rtt, err := c.transport.Call(name, req)
	*bufp = req[:0]
	putEncBuf(bufp)
	var msg Message
	if err == nil {
		msg, err = Decode(respB)
	}
	if err != nil {
		c.record(name, rtt, err)
		return Digest{}, rtt, err
	}
	c.wire.Recv(msg.MsgKind().String(), len(respB))
	resp, ok := msg.(DigestDeltaResp)
	if !ok {
		err := fmt.Errorf("%w: %v reply to digest delta req", ErrUnknownKind, msg.MsgKind())
		c.record(name, rtt, err)
		return Digest{}, rtt, err
	}
	c.record(name, rtt, nil)
	c.mu.Lock()
	p := c.table[name]
	d, err := p.mirror.apply(resp)
	if err == nil {
		p.digest = d
	}
	c.mu.Unlock()
	if err != nil {
		return Digest{}, rtt, err
	}
	return d, rtt, nil
}

// DropDigest forgets a cached digest and its delta-sync state (e.g.
// after the peer churns; a reincarnated peer starts from a full
// snapshot). The peer's health and circuit stay.
func (c *Client) DropDigest(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.table[name]; p != nil {
		p.mirror, p.digest = peerDigestState{}, Digest{}
	}
}

// SkippedQueries returns how many per-peer queries digests avoided.
func (c *Client) SkippedQueries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.skipped
}

// SetPeers replaces the peer set (Probe calls it with the peers that
// answered). A departed peer is no longer asked but keeps its record —
// health, circuit, last pong, cached digest — until DropDigest drops
// the digest.
func (c *Client) SetPeers(peers []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.table {
		p.configured = false
	}
	c.order = append(c.order[:0:0], peers...)
	for _, name := range c.order {
		c.peerLocked(name).configured = true
	}
}

// Peers returns a copy of the current peer set.
func (c *Client) Peers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.order...)
}

// QueryOutcome is the result of one budgeted peer-set query.
type QueryOutcome struct {
	// Hit is the best in-range answer; meaningful when Found.
	Hit RemoteHit
	// Found reports whether any peer produced an acceptable hit.
	Found bool
	// Cost is the simulated time the query charged to the frame: the
	// slowest queried peer's RTT (peers are asked concurrently on a
	// real radio), capped at the budget.
	Cost time.Duration
	// Queried is how many peers were actually asked.
	Queried int
	// Degraded reports that peers were configured but every one was
	// excluded by its open circuit: the P2P gate was skipped at zero
	// cost and the pipeline ran local-only.
	Degraded bool
}

// Query asks every admitted peer for vec without a time budget and
// returns the best in-range answer. found is false when no peer
// produced an acceptable hit; cost still reflects the time spent
// asking. See QueryFrame for the full outcome.
func (c *Client) Query(vec feature.Vector) (hit RemoteHit, cost time.Duration, found bool, err error) {
	out, err := c.QueryFrame(vec, 0)
	return out.Hit, out.Cost, out.Found, err
}

// QueryFrame asks the peer set for vec under a time budget (zero =
// unbounded). Peers whose circuit is open are excluded; peers are
// queried concurrently in the real world, so the charged cost is the
// slowest admitted peer's RTT, capped at the budget. An answer whose
// RTT overruns the budget is discarded and charged to the peer as a
// timeout — the caller keeps the best answer that arrived in time
// (fail partial, not fail total). When every peer is excluded the
// query returns immediately with Degraded set.
//
// Identical queries coalesce: concurrent callers with the same
// quantized vector code join one in-flight exchange, and (with
// CoalesceTTL set) a completed outcome is replayed at zero cost for
// the TTL — replays report Cost 0 and Queried 0, since nothing hit
// the wire. Only the caller that leads the exchange claims half-open
// probes, so a replay or a follower never strands one.
func (c *Client) QueryFrame(vec feature.Vector, budget time.Duration) (QueryOutcome, error) {
	c.flushDueGossip()
	// The encoded request is also the coalescing key: two vectors share
	// it exactly when they are indistinguishable on the wire.
	bufp := getEncBuf()
	defer putEncBuf(bufp)
	req, encErr := AppendEncode(*bufp, Query{Vec: vec, K: queryK})
	if encErr == nil {
		*bufp = req
	}
	now := c.clock.Now()
	c.mu.Lock()
	switch {
	case len(c.order) == 0:
		c.mu.Unlock()
		return QueryOutcome{}, nil
	case c.degradedLocked(now):
		c.degraded++
		c.mu.Unlock()
		return QueryOutcome{Degraded: true}, nil
	case encErr != nil:
		c.mu.Unlock()
		return QueryOutcome{}, fmt.Errorf("encode query: %w", encErr)
	}
	if e, ok := c.answers[string(req)]; ok { // only ever filled with CoalesceTTL on
		if !now.After(e.exp) {
			c.mu.Unlock()
			c.wire.CoalesceCached()
			return e.out, nil
		}
		delete(c.answers, string(req))
	}
	if fl, ok := c.flights[string(req)]; ok {
		c.mu.Unlock()
		<-fl.done
		c.wire.CoalesceInFlight()
		return fl.out, nil
	}
	key := string(req)
	fl := &flight{done: make(chan struct{})}
	c.flights[key] = fl
	var buf [8]string
	targets := c.admitLocked(buf[:0], now, vec)
	c.mu.Unlock()

	fl.out = c.ask(req, budget, targets)
	var exp time.Time
	if c.cfg.CoalesceTTL > 0 {
		exp = c.clock.Now().Add(c.cfg.CoalesceTTL)
	}
	// Publish the answer and retire the flight in one section: a caller
	// arriving in between would find neither and ask the peers again.
	c.mu.Lock()
	if c.cfg.CoalesceTTL > 0 {
		c.storeAnswerLocked(key, fl.out, exp)
	}
	delete(c.flights, key)
	c.mu.Unlock()
	close(fl.done)
	return fl.out, nil
}

func (c *Client) storeAnswerLocked(key string, out QueryOutcome, exp time.Time) {
	// Replays are free: nothing hits the wire, so the cached outcome
	// carries no cost and counts no queried peers.
	out.Cost = 0
	out.Queried = 0
	if _, exists := c.answers[key]; !exists {
		if len(c.answerQ) >= maxAnswerCache {
			oldest := c.answerQ[0]
			c.answerQ = c.answerQ[1:]
			delete(c.answers, oldest)
		}
		c.answerQ = append(c.answerQ, key)
	}
	c.answers[key] = answerEntry{out: out, exp: exp}
}

// ask sends the encoded query req to each target in turn and keeps the
// best in-range answer.
func (c *Client) ask(req []byte, budget time.Duration, targets []string) QueryOutcome {
	var out QueryOutcome
	for _, name := range targets {
		c.wire.Sent(KindQuery.String(), len(req))
		respB, rtt, err := c.transport.Call(name, req)
		out.Cost = max(out.Cost, rtt)
		if err == nil && budget > 0 && rtt > budget {
			// The answer exists but arrived after the frame's peer
			// deadline: discard it and charge the overrun.
			err = fmt.Errorf("%w: %v > %v from %s", ErrBudgetExceeded, rtt, budget, name)
		}
		out.Queried++
		var msg Message
		if err == nil {
			if msg, err = Decode(respB); err == nil {
				c.wire.Recv(msg.MsgKind().String(), len(respB))
			}
		}
		if c.record(name, rtt, err); err != nil {
			// A lost or failed exchange is a per-peer miss, not a
			// query failure: the requester simply proceeds with the
			// answers it has.
			continue
		}
		resp, ok := msg.(QueryResp)
		if !ok || !resp.Found || resp.Distance > maxDistance {
			continue
		}
		if !out.Found || resp.Distance < out.Hit.Distance {
			out.Hit = RemoteHit{
				Peer:       name,
				Label:      resp.Label,
				Confidence: resp.Confidence,
				Distance:   resp.Distance,
				RTT:        rtt,
			}
			out.Found = true
		}
	}
	if budget > 0 && out.Cost > budget {
		out.Cost = budget
	}
	return out
}

// Ping probes peer and returns its advertised identity and cache size.
// The outcome feeds the peer's health and circuit whatever the
// circuit's state, so a successful ping closes an open circuit; a pong
// also records its entry count and RTT on the peer's record.
func (c *Client) Ping(self, name string) (Pong, time.Duration, error) {
	bufp := getEncBuf()
	defer putEncBuf(bufp)
	req, err := AppendEncode(*bufp, Ping{From: self})
	if err != nil {
		return Pong{}, 0, fmt.Errorf("encode ping: %w", err)
	}
	*bufp = req[:0]
	c.wire.Sent(KindPing.String(), len(req))
	respB, rtt, err := c.transport.Call(name, req)
	var msg Message
	if err == nil {
		msg, err = Decode(respB)
	}
	if err != nil {
		c.record(name, rtt, err)
		return Pong{}, rtt, err
	}
	c.wire.Recv(msg.MsgKind().String(), len(respB))
	pong, ok := msg.(Pong)
	if !ok {
		err := fmt.Errorf("%w: %v reply to ping", ErrUnknownKind, msg.MsgKind())
		c.record(name, rtt, err)
		return Pong{}, rtt, err
	}
	c.record(name, rtt, nil)
	c.mu.Lock()
	p := c.table[name]
	p.entries, p.pingRTT = pong.Entries, rtt
	c.mu.Unlock()
	return pong, rtt, nil
}

// Probed is one peer that answered a Probe: the cache occupancy its
// pong advertised and the ping's round-trip time.
type Probed struct {
	Name    string
	Entries uint32
	RTT     time.Duration
}

// Probe pings each candidate once, in name order, skipping empty
// names, self and duplicates, then points the client at the peers that
// answered, warmest first: more advertised entries, then lower RTT,
// then name. It returns them in that order. Every ping goes out
// whatever the peer's circuit state, so a probe also heals open
// circuits off the hot path.
func (c *Client) Probe(self string, candidates []string) []Probed {
	names := append([]string(nil), candidates...)
	sort.Strings(names)
	var answered []string
	for i, name := range names {
		if name == "" || name == self || (i > 0 && name == names[i-1]) {
			continue
		}
		if _, _, err := c.Ping(self, name); err == nil {
			answered = append(answered, name)
		}
	}
	out := make([]Probed, len(answered))
	c.mu.Lock()
	for i, name := range answered {
		p := c.table[name]
		out[i] = Probed{Name: name, Entries: p.entries, RTT: p.pingRTT}
	}
	c.mu.Unlock()
	// answered is in name order, so a stable sort breaks full ties by name.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Entries != out[j].Entries {
			return out[i].Entries > out[j].Entries
		}
		return out[i].RTT < out[j].RTT
	})
	for i, p := range out {
		answered[i] = p.Name
	}
	c.SetPeers(answered)
	return out
}

// HealthSnapshot is a point-in-time view of the client's resilience
// state.
type HealthSnapshot struct {
	// Peers holds every configured or contacted peer once, sorted by
	// name, breaker state included.
	Peers []PeerHealth
	// Trips and Recoveries count breaker transitions so far.
	Trips, Recoveries int
	// DegradedQueries counts queries skipped because every peer's
	// circuit was open.
	DegradedQueries int
	// Degraded reports whether, right now, peers are configured but
	// every one of them has an open circuit.
	Degraded bool
}

// Health returns a snapshot of per-peer health and breaker state, read
// in one critical section so it cannot tear.
func (c *Client) Health() HealthSnapshot {
	now := c.clock.Now()
	c.mu.Lock()
	snap := HealthSnapshot{
		Peers:           make([]PeerHealth, 0, len(c.table)),
		Trips:           c.trips,
		Recoveries:      c.recoveries,
		DegradedQueries: c.degraded,
		Degraded:        len(c.order) > 0,
	}
	for name, p := range c.table {
		state := c.stateLocked(p, now)
		if p.configured && state != StateOpen {
			snap.Degraded = false
		}
		if p.configured || p.health.sampled {
			snap.Peers = append(snap.Peers, p.health.snapshot(name, state))
		}
	}
	c.mu.Unlock()
	sort.Slice(snap.Peers, func(i, j int) bool { return snap.Peers[i].Peer < snap.Peers[j].Peer })
	return snap
}

// SimnetTransport adapts a simnet.Network as a Transport for node self.
type SimnetTransport struct {
	self simnet.NodeID
	net  *simnet.Network
}

var _ Transport = (*SimnetTransport)(nil)

// NewSimnetTransport builds a transport sending as self over net.
func NewSimnetTransport(self string, net *simnet.Network) (*SimnetTransport, error) {
	if self == "" {
		return nil, fmt.Errorf("p2p: empty self id")
	}
	if net == nil {
		return nil, fmt.Errorf("p2p: nil network")
	}
	return &SimnetTransport{self: simnet.NodeID(self), net: net}, nil
}

// Call implements Transport.
func (t *SimnetTransport) Call(peer string, req []byte) ([]byte, time.Duration, error) {
	resp, rtt, err := t.net.Call(t.self, simnet.NodeID(peer), req)
	if err != nil && !errors.Is(err, simnet.ErrLost) {
		return nil, rtt, err
	}
	return resp, rtt, err
}

// Send implements Transport.
func (t *SimnetTransport) Send(peer string, payload []byte) (time.Duration, error) {
	return t.net.Send(t.self, simnet.NodeID(peer), payload)
}

// RegisterService wires svc into net under its own name, so peers can
// reach it.
func RegisterService(net *simnet.Network, svc *Service) error {
	if net == nil {
		return fmt.Errorf("p2p: nil network")
	}
	if svc == nil {
		return fmt.Errorf("p2p: nil service")
	}
	return net.Register(simnet.NodeID(svc.Name()), func(from simnet.NodeID, req []byte) ([]byte, error) {
		return svc.HandleRaw(string(from), req)
	})
}
