package p2p

import (
	"fmt"
	"math/rand"
	"time"

	"approxcache/internal/feature"
)

// The client's fixed peer policy.
const (
	// queryK is the neighbor count asked of each peer.
	queryK = 4
	// maxDistance filters peer answers: hits farther than this are
	// ignored (the requester applies its own reuse radius). It is also
	// the digest prefilter's radius and slack.
	maxDistance = 0.25
	// gossipAttempts bounds delivery attempts per peer and gossip, the
	// first one included.
	gossipAttempts = 2
	// healthAlpha smooths a peer's latency and success EWMAs; higher
	// weights recent exchanges more.
	healthAlpha = 0.3
	// failureThreshold consecutive failures trip a closed circuit open.
	failureThreshold = 3
	// baseBackoff is a circuit's first open interval; every failed
	// half-open probe doubles it, up to maxBackoff.
	baseBackoff = 250 * time.Millisecond
	maxBackoff  = 10 * time.Second
	// jitterFrac spreads every backoff by ±20 %, so a fleet of devices
	// does not re-probe a healed peer in lockstep.
	jitterFrac = 0.2
)

// BreakerState is one peer's circuit state.
type BreakerState int

// Circuit states.
const (
	// StateClosed admits traffic normally.
	StateClosed BreakerState = iota
	// StateOpen rejects traffic until a backoff elapses.
	StateOpen
	// StateHalfOpen admits a single probe to test recovery.
	StateHalfOpen
)

// String returns the state name.
func (s BreakerState) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// PeerHealth is a snapshot of one peer's observed behaviour.
type PeerHealth struct {
	// Peer names the peer.
	Peer string
	// Successes and Failures count completed exchanges by outcome.
	Successes, Failures int
	// ConsecFailures counts failures since the last success.
	ConsecFailures int
	// Timeouts counts deadline/budget overruns.
	Timeouts int
	// LatencyEWMA is the smoothed round-trip time of exchanges.
	LatencyEWMA time.Duration
	// SuccessEWMA is the smoothed success rate in [0,1].
	SuccessEWMA float64
	// LastClass is the most recent exchange's failure class.
	LastClass ErrClass
	// State is the peer's circuit-breaker state.
	State BreakerState
}

// peer is everything a client knows about one peer, guarded by the
// client's mutex: how its exchanges went, its circuit, what its last
// pong advertised, and the mirror of its coverage digest.
type peer struct {
	health  health
	circuit circuit
	// configured marks a peer in the client's current peer set.
	configured bool
	// entries is the cache occupancy the peer's last pong advertised,
	// pingRTT that ping's round-trip time; Probe ranks peers by them.
	entries uint32
	pingRTT time.Duration
	// mirror is the delta-synced digest state; digest is its flattened
	// form, meaningful once mirror.centroids is non-nil.
	mirror peerDigestState
	digest Digest
}

// digestAllows reports whether vec is worth asking this peer about:
// true without a digest, else when some centroid lies within the reuse
// radius plus one radius of cluster spread.
func (p *peer) digestAllows(vec feature.Vector) bool {
	return p.mirror.centroids == nil || p.digest.MayCover(vec, maxDistance, maxDistance)
}

// health is one peer's exchange outcomes and EWMAs.
type health struct {
	successes, failures int
	consecFailures      int
	timeouts            int
	latencyEWMA         float64 // nanoseconds
	successEWMA         float64
	sampled             bool
	lastClass           ErrClass
}

// observe records one exchange: its round-trip time and failure class
// (ErrClassNone for success).
func (h *health) observe(rtt time.Duration, class ErrClass) {
	outcome := 1.0
	if class.Failure() {
		outcome = 0.0
		h.failures++
		h.consecFailures++
		if class == ErrClassTimeout {
			h.timeouts++
		}
	} else {
		h.successes++
		h.consecFailures = 0
	}
	if !h.sampled {
		h.latencyEWMA = float64(rtt)
		h.successEWMA = outcome
		h.sampled = true
	} else {
		h.latencyEWMA += healthAlpha * (float64(rtt) - h.latencyEWMA)
		h.successEWMA += healthAlpha * (outcome - h.successEWMA)
	}
	h.lastClass = class
}

// snapshot is h as peer name's exported view, in circuit state.
func (h *health) snapshot(name string, state BreakerState) PeerHealth {
	return PeerHealth{
		Peer:           name,
		Successes:      h.successes,
		Failures:       h.failures,
		ConsecFailures: h.consecFailures,
		Timeouts:       h.timeouts,
		LatencyEWMA:    time.Duration(h.latencyEWMA),
		SuccessEWMA:    h.successEWMA,
		LastClass:      h.lastClass,
		State:          state,
	}
}

// circuit is one peer's breaker. It trips open after failureThreshold
// consecutive failures; once its backoff elapses, the next allow admits
// exactly one half-open probe. A success closes it from any state; a
// failed probe re-opens it with doubled backoff. The zero value is
// closed.
type circuit struct {
	state     BreakerState
	fails     int           // consecutive failures while closed
	backoff   time.Duration // current open interval
	openUntil time.Time
	probing   bool // a half-open probe is in flight
}

// admits reports whether allow would admit a call at now, claiming
// nothing.
func (c *circuit) admits(now time.Time) bool {
	switch c.state {
	case StateClosed:
		return true
	case StateOpen:
		return !now.Before(c.openUntil)
	default: // StateHalfOpen
		return !c.probing
	}
}

// allow reports whether a call may proceed at now. An open circuit
// whose backoff has elapsed turns half-open and admits this call as its
// one probe; further calls are refused until the probe resolves.
func (c *circuit) allow(now time.Time) bool {
	if !c.admits(now) {
		return false
	}
	if c.state != StateClosed {
		c.state, c.probing = StateHalfOpen, true
	}
	return true
}

// onSuccess closes the circuit, whatever its state — evidence that the
// peer answered beats the backoff schedule — and reports whether that
// was a recovery.
func (c *circuit) onSuccess() (recovered bool) {
	recovered = c.state != StateClosed
	*c = circuit{}
	return recovered
}

// onFailure records a failed exchange at now and reports whether it
// tripped the circuit open (from closed) or re-opened it (a failed
// half-open probe). A trip draws its jitter from rng.
func (c *circuit) onFailure(now time.Time, rng *rand.Rand) (tripped bool) {
	switch c.state {
	case StateClosed:
		c.fails++
		if c.fails < failureThreshold {
			return false
		}
		c.open(now, baseBackoff, rng)
		return true
	case StateHalfOpen:
		c.open(now, min(2*c.backoff, maxBackoff), rng)
		return true
	default: // StateOpen: a straggler failure changes nothing.
		return false
	}
}

// open trips the circuit for backoff ± jitter from now.
func (c *circuit) open(now time.Time, backoff time.Duration, rng *rand.Rand) {
	f := 1 + jitterFrac*(2*rng.Float64()-1)
	*c = circuit{
		state:     StateOpen,
		backoff:   backoff,
		openUntil: now.Add(time.Duration(float64(backoff) * f)),
	}
}

// read returns the state at now: an open circuit whose backoff has
// elapsed reads half-open.
func (c *circuit) read(now time.Time) BreakerState {
	if c.state == StateOpen && !now.Before(c.openUntil) {
		return StateHalfOpen
	}
	return c.state
}
