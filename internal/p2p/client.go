package p2p

import (
	"errors"
	"fmt"
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

// ClientConfig parameterizes the querying side.
type ClientConfig struct {
	// K is the neighbor count requested from each peer.
	K int
	// MaxDistance filters peer answers: hits farther than this are
	// ignored (the requester applies its own reuse radius).
	MaxDistance float64
	// GossipFanout caps how many peers each fresh result is shared
	// with. Zero shares with all peers.
	GossipFanout int
	// GossipAttempts is the per-peer delivery attempt bound for
	// gossip, including the first try. Zero selects the default (2).
	// Retries happen off the recognition hot path: their backoff is
	// not charged to the frame.
	GossipAttempts int
	// QueryBudget is the default per-query time budget applied by
	// Query: answers arriving later are discarded (and charged to the
	// peer as a timeout), and the charged cost is capped at the
	// budget. Zero disables the cap. The engine overrides it per frame
	// via QueryFrame with a budget derived from DNN latency.
	QueryBudget time.Duration
	// Health tunes the per-peer health EWMAs (zero value = defaults).
	Health HealthConfig
	// Breaker tunes the per-peer circuit breaker (zero value =
	// defaults). Set Breaker.Disabled to bypass it entirely.
	Breaker BreakerConfig
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
	// are lazy — checked on enqueue and on each QueryFrame — plus
	// explicit via FlushGossip, which the maintainer loop calls.
	GossipFlush time.Duration
}

// Validate reports whether the configuration is usable.
func (c ClientConfig) Validate() error {
	if c.K <= 0 || c.K > 255 {
		return fmt.Errorf("p2p: client K must be in [1,255], got %d", c.K)
	}
	if c.MaxDistance <= 0 {
		return fmt.Errorf("p2p: client MaxDistance must be positive, got %v", c.MaxDistance)
	}
	if c.GossipFanout < 0 {
		return fmt.Errorf("p2p: GossipFanout must be non-negative, got %d", c.GossipFanout)
	}
	if c.GossipAttempts < 0 {
		return fmt.Errorf("p2p: GossipAttempts must be non-negative, got %d", c.GossipAttempts)
	}
	if c.QueryBudget < 0 {
		return fmt.Errorf("p2p: QueryBudget must be non-negative, got %v", c.QueryBudget)
	}
	if c.CoalesceTTL < 0 {
		return fmt.Errorf("p2p: CoalesceTTL must be non-negative, got %v", c.CoalesceTTL)
	}
	if c.GossipBatch < 0 || c.GossipBatch > MaxGossipBatch {
		return fmt.Errorf("p2p: GossipBatch must be in [0,%d], got %d", MaxGossipBatch, c.GossipBatch)
	}
	if c.GossipFlush < 0 {
		return fmt.Errorf("p2p: GossipFlush must be non-negative, got %v", c.GossipFlush)
	}
	if err := c.Health.Validate(); err != nil {
		return err
	}
	return c.Breaker.Validate()
}

// DefaultClientConfig returns the standard querying policy.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{K: 4, MaxDistance: 0.25, GossipFanout: 0, GossipAttempts: 2}
}

// Client queries and gossips to a set of peers over a Transport.
//
// Client is the guarded side of the P2P reuse path: every exchange
// feeds a per-peer health tracker, and a circuit breaker excludes
// misbehaving peers from the fan-out until a backed-off half-open
// probe shows them healthy again. When every peer is open the client
// degrades to local-only operation at zero cost instead of stalling
// the frame. Client is safe for concurrent use.
type Client struct {
	cfg       ClientConfig
	transport Transport
	health    *HealthTracker
	breaker   *Breaker
	clock     simclock.Clock
	wire      metrics.WireTally

	mu       sync.Mutex
	peers    []string
	digests  map[string]Digest
	deltas   map[string]*peerDigestState
	flights  map[string]*flight
	answers  map[string]answerEntry
	answerQ  []string
	pending  []Gossip
	due      time.Time
	skipped  int
	degraded int
	observer Observer
}

// flight is one in-progress peer-set query that concurrent identical
// queries join instead of duplicating. out/err are written before done
// is closed, so followers read them race-free.
type flight struct {
	done chan struct{}
	out  QueryOutcome
	err  error
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
	if cfg.GossipAttempts == 0 {
		cfg.GossipAttempts = 2
	}
	health, err := NewHealthTracker(cfg.Health)
	if err != nil {
		return nil, err
	}
	breaker, err := NewBreaker(cfg.Breaker, cfg.Clock)
	if err != nil {
		return nil, err
	}
	clock := cfg.Clock
	if clock == nil {
		clock = simclock.Real{}
	}
	return &Client{
		cfg:       cfg,
		transport: transport,
		health:    health,
		breaker:   breaker,
		clock:     clock,
		digests:   make(map[string]Digest),
		deltas:    make(map[string]*peerDigestState),
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

// getObserver snapshots the observer.
func (c *Client) getObserver() Observer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.observer
}

// record books one exchange outcome into the health tracker, breaker,
// and observer. It returns the failure class of err.
func (c *Client) record(peer string, rtt time.Duration, err error) ErrClass {
	class := Classify(err)
	c.health.Observe(peer, rtt, class)
	obs := c.getObserver()
	if class.Failure() {
		if class == ErrClassTimeout && obs != nil {
			obs.PeerTimeout(peer)
		}
		if c.breaker.OnFailure(peer) && obs != nil {
			obs.BreakerTrip(peer)
		}
	} else if c.breaker.OnSuccess(peer) && obs != nil {
		obs.BreakerRecovery(peer)
	}
	return class
}

// Breaker exposes the client's circuit breaker (for tests and tools).
func (c *Client) Breaker() *Breaker { return c.breaker }

// FetchDigest asks peer for its coverage digest and caches it, so
// subsequent Queries can skip the peer when it cannot possibly help.
// Call it periodically (the digest staleness trade-off is the usual
// one: a stale digest only costs missed hits or wasted queries).
// The exchange is an epoch delta: the first fetch (or one the peer can
// no longer serve a delta for) returns the full digest, later ones only
// the centroids added or removed since, applied to the local mirror.
func (c *Client) FetchDigest(peer string) (Digest, time.Duration, error) {
	c.mu.Lock()
	st := c.deltas[peer]
	if st == nil {
		st = &peerDigestState{}
		c.deltas[peer] = st
	}
	since := st.epoch
	c.mu.Unlock()
	bufp := getEncBuf()
	req, err := AppendEncode(*bufp, DigestDeltaReq{Since: since})
	if err != nil {
		putEncBuf(bufp)
		return Digest{}, 0, fmt.Errorf("encode digest delta req: %w", err)
	}
	c.wire.Sent(KindDigestDeltaReq.String(), len(req))
	respB, rtt, err := c.transport.Call(peer, req)
	*bufp = req[:0]
	putEncBuf(bufp)
	if err != nil {
		c.record(peer, rtt, err)
		return Digest{}, rtt, err
	}
	msg, err := Decode(respB)
	if err != nil {
		c.record(peer, rtt, err)
		return Digest{}, rtt, err
	}
	c.wire.Recv(msg.MsgKind().String(), len(respB))
	resp, ok := msg.(DigestDeltaResp)
	if !ok {
		err := fmt.Errorf("%w: %v reply to digest delta req", ErrUnknownKind, msg.MsgKind())
		c.record(peer, rtt, err)
		return Digest{}, rtt, err
	}
	c.record(peer, rtt, nil)
	c.mu.Lock()
	d, applyErr := st.apply(resp)
	if applyErr == nil {
		c.digests[peer] = d
	}
	c.mu.Unlock()
	if applyErr != nil {
		return Digest{}, rtt, applyErr
	}
	return d, rtt, nil
}

// DropDigest forgets a cached digest and its delta-sync state (e.g.
// after the peer churns; a reincarnated peer starts from a full
// snapshot).
func (c *Client) DropDigest(peer string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.digests, peer)
	delete(c.deltas, peer)
}

// SkippedQueries returns how many per-peer queries digests avoided.
func (c *Client) SkippedQueries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.skipped
}

// digestAllows reports whether peer should be queried for vec: true
// when no digest is cached, or when the digest says the peer may cover
// the query.
func (c *Client) digestAllows(peer string, vec feature.Vector) bool {
	c.mu.Lock()
	d, ok := c.digests[peer]
	c.mu.Unlock()
	if !ok {
		return true
	}
	// Slack of one reuse radius absorbs cluster spread.
	if d.MayCover(vec, c.cfg.MaxDistance, c.cfg.MaxDistance) {
		return true
	}
	c.mu.Lock()
	c.skipped++
	c.mu.Unlock()
	return false
}

// SetPeers replaces the peer set. A departed peer's cached digest and
// delta-sync state stay until the caller's DropDigest.
func (c *Client) SetPeers(peers []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.peers = append(c.peers[:0:0], peers...)
}

// Peers returns a copy of the current peer set.
func (c *Client) Peers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.peers...)
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

// Query asks every admitted peer for vec and returns the best in-range
// answer, applying the configured default budget. found is false when
// no peer produced an acceptable hit; cost still reflects the time
// spent asking. See QueryFrame for the full outcome.
func (c *Client) Query(vec feature.Vector) (hit RemoteHit, cost time.Duration, found bool, err error) {
	out, err := c.QueryFrame(vec, c.cfg.QueryBudget)
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
// the wire.
func (c *Client) QueryFrame(vec feature.Vector, budget time.Duration) (QueryOutcome, error) {
	c.flushDueGossip()
	peers := c.Peers()
	if len(peers) == 0 {
		return QueryOutcome{}, nil
	}
	admitted := peers[:0:0]
	for _, peer := range peers {
		if c.breaker.Allow(peer) {
			admitted = append(admitted, peer)
		}
	}
	if len(admitted) == 0 {
		c.mu.Lock()
		c.degraded++
		c.mu.Unlock()
		return QueryOutcome{Degraded: true}, nil
	}
	key, err := queryKey(vec)
	if err != nil {
		return QueryOutcome{}, fmt.Errorf("encode query: %w", err)
	}
	out, fl, leader := c.replayOrJoin(key)
	if fl == nil {
		c.wire.CoalesceCached()
		return out, nil
	}
	if !leader {
		<-fl.done
		c.wire.CoalesceInFlight()
		return fl.out, fl.err
	}
	out, err = c.queryAdmitted(vec, budget, admitted)
	fl.out, fl.err = out, err
	// Publish the answer before retiring the flight: a caller arriving
	// in between would find neither and query the peers a second time.
	if err == nil && !out.Degraded && c.cfg.CoalesceTTL > 0 {
		c.storeAnswer(key, out)
	}
	c.finishFlight(key, fl)
	return out, err
}

// queryKey is the coalescing identity of a query: the quantized vector
// encoding, so two vectors share a key exactly when they are
// indistinguishable on the wire.
func queryKey(vec feature.Vector) (string, error) {
	bufp := getEncBuf()
	b, err := appendQuantVec(*bufp, vec)
	if err != nil {
		putEncBuf(bufp)
		return "", err
	}
	key := string(b)
	*bufp = b[:0]
	putEncBuf(bufp)
	return key, nil
}

// replayOrJoin resolves a query against the coalescing state in one
// critical section: a cached answer still within its TTL (fl nil), else
// the in-flight exchange to wait on, else a new flight the caller
// leads. One section, so that a caller cannot miss the cache, then miss
// the flight that stored the answer and retired in between.
func (c *Client) replayOrJoin(key string) (out QueryOutcome, fl *flight, leader bool) {
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.answers[key]; ok { // only ever filled with CoalesceTTL on
		if !now.After(e.exp) {
			return e.out, nil, false
		}
		delete(c.answers, key)
	}
	if fl, ok := c.flights[key]; ok {
		return QueryOutcome{}, fl, false
	}
	fl = &flight{done: make(chan struct{})}
	c.flights[key] = fl
	return QueryOutcome{}, fl, true
}

func (c *Client) finishFlight(key string, fl *flight) {
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	close(fl.done)
}

func (c *Client) storeAnswer(key string, out QueryOutcome) {
	// Replays are free: nothing hits the wire, so the cached outcome
	// carries no cost and counts no queried peers.
	out.Cost = 0
	out.Queried = 0
	exp := c.clock.Now().Add(c.cfg.CoalesceTTL)
	c.mu.Lock()
	defer c.mu.Unlock()
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

// queryAdmitted runs the actual peer fan-out for one query, encoding
// the request once into a pooled buffer.
func (c *Client) queryAdmitted(vec feature.Vector, budget time.Duration, admitted []string) (QueryOutcome, error) {
	bufp := getEncBuf()
	defer putEncBuf(bufp)
	req, err := AppendEncode(*bufp, Query{Vec: vec, K: uint8(c.cfg.K)})
	if err != nil {
		return QueryOutcome{}, fmt.Errorf("encode query: %w", err)
	}
	*bufp = req
	var out QueryOutcome
	var maxRTT time.Duration
	for _, peer := range admitted {
		if !c.digestAllows(peer, vec) {
			// The peer's digest says it cannot help. Resolve a
			// half-open probe admission without an exchange.
			c.breaker.OnSuccess(peer)
			continue
		}
		c.wire.Sent(KindQuery.String(), len(req))
		respB, rtt, callErr := c.transport.Call(peer, req)
		if rtt > maxRTT {
			maxRTT = rtt
		}
		if callErr == nil && budget > 0 && rtt > budget {
			// The answer exists but arrived after the frame's peer
			// deadline: discard it and charge the overrun.
			callErr = fmt.Errorf("%w: %v > %v from %s", ErrBudgetExceeded, rtt, budget, peer)
		}
		out.Queried++
		var msg Message
		if callErr == nil {
			var decErr error
			msg, decErr = Decode(respB)
			if decErr != nil {
				callErr = decErr
			} else {
				c.wire.Recv(msg.MsgKind().String(), len(respB))
			}
		}
		if c.record(peer, rtt, callErr); callErr != nil {
			// A lost or failed exchange is a per-peer miss, not a
			// query failure: the requester simply proceeds with the
			// answers it has.
			continue
		}
		resp, ok := msg.(QueryResp)
		if !ok || !resp.Found || resp.Distance > c.cfg.MaxDistance {
			continue
		}
		if !out.Found || resp.Distance < out.Hit.Distance {
			out.Hit = RemoteHit{
				Peer:       peer,
				Label:      resp.Label,
				Confidence: resp.Confidence,
				Distance:   resp.Distance,
				RTT:        rtt,
			}
			out.Found = true
		}
	}
	out.Cost = maxRTT
	if budget > 0 && out.Cost > budget {
		out.Cost = budget
	}
	return out, nil
}

// Gossip shares a fresh recognition result with up to GossipFanout
// admitted peers (all peers when zero). Gossip is fire-and-forget:
// per-peer failures are ignored after GossipAttempts bounded retries,
// peers with open circuits are skipped, and the returned cost is the
// slowest successful delivery (sends proceed concurrently on a real
// radio). Retry pacing happens off the recognition hot path, so no
// backoff is charged to the returned cost.
//
// With GossipBatch > 1 the item is queued instead of sent: the queue
// flushes when it reaches GossipBatch items or the oldest item has
// waited GossipFlush (checked lazily on enqueue and on QueryFrame, or
// explicitly via FlushGossip). Each peer receives the whole batch as
// one message.
func (c *Client) Gossip(vec feature.Vector, label string, confidence float64, savedCost time.Duration) (time.Duration, error) {
	item := Gossip{Vec: vec, Label: label, Confidence: confidence, SavedCost: savedCost}
	if c.cfg.GossipBatch <= 1 {
		return c.deliverGossip([]Gossip{item})
	}
	// Queued items outlive the caller's frame, whose vector buffer may
	// be reused; take a private copy.
	item.Vec = vec.Clone()
	now := c.clock.Now()
	c.mu.Lock()
	c.pending = append(c.pending, item)
	if len(c.pending) == 1 {
		c.due = now.Add(c.gossipFlushInterval())
	}
	flush := len(c.pending) >= c.cfg.GossipBatch || !now.Before(c.due)
	var items []Gossip
	if flush {
		items = c.pending
		c.pending = nil
	}
	c.mu.Unlock()
	if !flush {
		return 0, nil
	}
	return c.deliverGossip(items)
}

// FlushGossip delivers any queued gossip immediately. The maintainer
// loop calls it so queued items never outlive a maintenance interval.
func (c *Client) FlushGossip() (time.Duration, error) {
	c.mu.Lock()
	items := c.pending
	c.pending = nil
	c.mu.Unlock()
	if len(items) == 0 {
		return 0, nil
	}
	return c.deliverGossip(items)
}

// flushDueGossip flushes the queue if its deadline has passed; called
// from QueryFrame so batching never needs a background timer.
func (c *Client) flushDueGossip() {
	c.mu.Lock()
	if len(c.pending) == 0 {
		c.mu.Unlock()
		return
	}
	due := !c.clock.Now().Before(c.due)
	var items []Gossip
	if due {
		items = c.pending
		c.pending = nil
	}
	c.mu.Unlock()
	if due {
		c.deliverGossip(items) //nolint:errcheck // fire-and-forget
	}
}

func (c *Client) gossipFlushInterval() time.Duration {
	if c.cfg.GossipFlush > 0 {
		return c.cfg.GossipFlush
	}
	return 100 * time.Millisecond
}

// deliverGossip fans the items out to admitted peers, one frame per
// peer: a Gossip for a single item, a GossipBatch for several.
func (c *Client) deliverGossip(items []Gossip) (time.Duration, error) {
	peers := c.Peers()
	if len(peers) == 0 {
		return 0, nil
	}
	admitted := peers[:0:0]
	for _, peer := range peers {
		if c.breaker.Allow(peer) {
			admitted = append(admitted, peer)
		}
	}
	if c.cfg.GossipFanout > 0 && len(admitted) > c.cfg.GossipFanout {
		admitted = admitted[:c.cfg.GossipFanout]
	}
	if len(admitted) == 0 {
		return 0, nil
	}
	var m Message = items[0]
	if len(items) > 1 {
		m = GossipBatch{Items: items}
	}
	bufp := getEncBuf()
	defer putEncBuf(bufp)
	payload, err := AppendEncode(*bufp, m)
	if err != nil {
		return 0, fmt.Errorf("encode gossip: %w", err)
	}
	*bufp = payload
	var maxCost time.Duration
	for _, peer := range admitted {
		cost, ok := c.sendGossipPayload(peer, payload, m.MsgKind())
		if !ok {
			continue
		}
		if len(items) > 1 {
			c.wire.ObserveBatch(len(items))
		}
		if cost > maxCost {
			maxCost = cost
		}
	}
	return maxCost, nil
}

// sendGossipPayload delivers one gossip frame with the bounded retry
// policy, booking health and wire stats. ok reports delivery.
func (c *Client) sendGossipPayload(peer string, payload []byte, kind Kind) (time.Duration, bool) {
	for attempt := 0; attempt < c.cfg.GossipAttempts; attempt++ {
		c.wire.Sent(kind.String(), len(payload))
		cost, sendErr := c.transport.Send(peer, payload)
		c.record(peer, cost, sendErr)
		if sendErr == nil {
			return cost, true
		}
		// Only transient loss is worth a retry; a crashed or
		// partitioned peer fails the same way immediately.
		if !errors.Is(sendErr, simnet.ErrLost) {
			break
		}
	}
	return 0, false
}

// Ping probes peer and returns its advertised identity and cache size.
// The outcome feeds the health tracker and breaker, so background
// roster refreshes double as recovery probes for open circuits.
func (c *Client) Ping(self, peer string) (Pong, time.Duration, error) {
	bufp := getEncBuf()
	defer putEncBuf(bufp)
	req, err := AppendEncode(*bufp, Ping{From: self})
	if err != nil {
		return Pong{}, 0, fmt.Errorf("encode ping: %w", err)
	}
	*bufp = req[:0]
	c.wire.Sent(KindPing.String(), len(req))
	respB, rtt, err := c.transport.Call(peer, req)
	if err != nil {
		c.record(peer, rtt, err)
		return Pong{}, rtt, err
	}
	msg, err := Decode(respB)
	if err != nil {
		c.record(peer, rtt, err)
		return Pong{}, rtt, err
	}
	c.wire.Recv(msg.MsgKind().String(), len(respB))
	pong, ok := msg.(Pong)
	if !ok {
		err := fmt.Errorf("%w: %v reply to ping", ErrUnknownKind, msg.MsgKind())
		c.record(peer, rtt, err)
		return Pong{}, rtt, err
	}
	c.record(peer, rtt, nil)
	return pong, rtt, nil
}

// ProbeOpen pings every peer whose circuit is currently open,
// identifying as self. It is the explicit background re-probe hook:
// call it from a maintenance loop to heal circuits without waiting for
// the hot path to trip over them. It returns how many probes
// succeeded (each success closes that peer's circuit).
func (c *Client) ProbeOpen(self string) int {
	recovered := 0
	for _, peer := range c.breaker.Open() {
		if _, _, err := c.Ping(self, peer); err == nil {
			recovered++
		}
	}
	return recovered
}

// HealthSnapshot is a point-in-time view of the client's resilience
// state.
type HealthSnapshot struct {
	// Peers holds per-peer health, sorted by name, with breaker
	// states filled in.
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

// Health returns a snapshot of per-peer health and breaker state.
func (c *Client) Health() HealthSnapshot {
	var snap HealthSnapshot
	snap.Peers = c.health.Snapshot()
	seen := make(map[string]bool, len(snap.Peers))
	for i := range snap.Peers {
		snap.Peers[i].State = c.breaker.State(snap.Peers[i].Peer)
		seen[snap.Peers[i].Peer] = true
	}
	peers := c.Peers()
	for _, peer := range peers {
		if !seen[peer] {
			snap.Peers = append(snap.Peers, PeerHealth{Peer: peer, State: c.breaker.State(peer)})
		}
	}
	snap.Trips, snap.Recoveries = c.breaker.Counts()
	c.mu.Lock()
	snap.DegradedQueries = c.degraded
	c.mu.Unlock()
	if len(peers) > 0 {
		snap.Degraded = true
		for _, peer := range peers {
			if c.breaker.State(peer) != StateOpen {
				snap.Degraded = false
				break
			}
		}
	}
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
