// Package simnet simulates the infrastructure-less wireless links
// (Wi-Fi Direct / BLE class) between nearby devices.
//
// The simulation is cost-centric: delivering a message computes the
// latency it *would* take (propagation + jitter + transmission at the
// link bandwidth, each direction subject to loss) and returns it to the
// caller, which charges it to its virtual clock. This keeps multi-device
// experiments deterministic and lets a minutes-long scenario replay in
// milliseconds. The real-socket counterpart lives in internal/p2p's TCP
// transport.
package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// NodeID identifies a device on the simulated network.
type NodeID string

// Errors returned by network operations.
var (
	// ErrUnknownNode is returned when addressing an unregistered node.
	ErrUnknownNode = errors.New("simnet: unknown node")
	// ErrLost is returned when a message is dropped by link loss.
	ErrLost = errors.New("simnet: message lost")
	// ErrCrashed is returned when the destination node is crashed
	// (registered, but down).
	ErrCrashed = errors.New("simnet: node crashed")
)

// LinkProfile describes the cost model every link shares.
type LinkProfile struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Jitter is the standard deviation of additional one-way delay.
	Jitter time.Duration
	// LossProb is the probability a message is dropped, per direction.
	LossProb float64
	// BandwidthBps is the link bandwidth in bytes per second. Zero
	// means transmission time is negligible.
	BandwidthBps int64
}

// Validate reports whether the profile is usable.
func (p LinkProfile) Validate() error {
	if p.Latency < 0 || p.Jitter < 0 {
		return fmt.Errorf("simnet: negative latency/jitter (%v/%v)", p.Latency, p.Jitter)
	}
	if p.LossProb < 0 || p.LossProb >= 1 {
		return fmt.Errorf("simnet: loss probability must be in [0,1), got %v", p.LossProb)
	}
	if p.BandwidthBps < 0 {
		return fmt.Errorf("simnet: negative bandwidth %d", p.BandwidthBps)
	}
	return nil
}

// DefaultLinkProfile models a short-range device-to-device link:
// ~6 ms one-way, 2 ms jitter, 1% loss, 3 MB/s.
func DefaultLinkProfile() LinkProfile {
	return LinkProfile{
		Latency:      6 * time.Millisecond,
		Jitter:       2 * time.Millisecond,
		LossProb:     0.01,
		BandwidthBps: 3 << 20,
	}
}

// Handler serves incoming RPCs at a node. from identifies the caller;
// the returned payload is sent back. Handlers must be safe for
// concurrent use.
type Handler func(from NodeID, req []byte) (resp []byte, err error)

// Network is a registry of nodes joined by lossy, delayed links.
// Network is safe for concurrent use.
type Network struct {
	link LinkProfile

	mu       sync.Mutex
	rng      *rand.Rand
	nodes    map[NodeID]Handler
	crashed  map[NodeID]bool
	deadCost time.Duration
}

// New builds a network whose links all use def, seeding all stochastic
// behaviour (jitter, loss) from seed.
func New(def LinkProfile, seed int64) (*Network, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	return &Network{
		link:    def,
		rng:     rand.New(rand.NewSource(seed)),
		nodes:   make(map[NodeID]Handler),
		crashed: make(map[NodeID]bool),
	}, nil
}

// Register adds node id with handler h. Re-registering replaces the
// handler.
func (n *Network) Register(id NodeID, h Handler) error {
	if id == "" {
		return fmt.Errorf("simnet: empty node id")
	}
	if h == nil {
		return fmt.Errorf("simnet: nil handler for %q", id)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes[id] = h
	return nil
}

// Unregister removes node id.
func (n *Network) Unregister(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nodes, id)
}

// SetDeadCost sets the simulated time a caller wastes before giving up
// on an unreachable (unregistered or crashed) node — the timeout a
// real radio pays for a stale peer list. Zero (the default) makes dead
// calls fail instantly.
func (n *Network) SetDeadCost(d time.Duration) {
	if d < 0 {
		d = 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.deadCost = d
}

// Crash takes node id down: calls and sends to it fail with ErrCrashed
// (after the configured dead cost), as if the process died. The
// handler registration is retained so Restart brings it back.
func (n *Network) Crash(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[id] = true
}

// Restart brings a crashed node back up.
func (n *Network) Restart(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.crashed, id)
}

// reach returns to's handler, or the dead cost and error an exchange
// with an unregistered or crashed node ends in. Caller holds n.mu.
func (n *Network) reach(to NodeID) (Handler, time.Duration, error) {
	h, ok := n.nodes[to]
	if !ok {
		return nil, n.deadCost, fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	if n.crashed[to] {
		return nil, n.deadCost, fmt.Errorf("%w: %q", ErrCrashed, to)
	}
	return h, 0, nil
}

// oneWayCost draws the simulated delay for size bytes over the link, or
// ErrLost. Caller holds n.mu.
func (n *Network) oneWayCost(size int) (time.Duration, error) {
	p := n.link
	if n.rng.Float64() < p.LossProb {
		return 0, ErrLost
	}
	d := p.Latency
	if p.Jitter > 0 {
		j := time.Duration(n.rng.NormFloat64() * float64(p.Jitter))
		if j < 0 {
			j = -j
		}
		d += j
	}
	if p.BandwidthBps > 0 {
		d += time.Duration(float64(size) / float64(p.BandwidthBps) * float64(time.Second))
	}
	return d, nil
}

// Call performs a synchronous RPC from→to. It returns the handler's
// response and the simulated round-trip time the exchange would take,
// which the caller charges to its clock. Loss in either direction
// returns ErrLost with the time wasted before the caller would give up
// (one-way cost so far).
func (n *Network) Call(from, to NodeID, req []byte) (resp []byte, rtt time.Duration, err error) {
	n.mu.Lock()
	h, dead, err := n.reach(to)
	if err != nil {
		n.mu.Unlock()
		return nil, dead, err
	}
	fwdCost, fwdErr := n.oneWayCost(len(req))
	n.mu.Unlock()
	if fwdErr != nil {
		return nil, fwdCost, fwdErr
	}

	resp, err = h(from, req)
	if err != nil {
		return nil, fwdCost, fmt.Errorf("handler %q: %w", to, err)
	}

	n.mu.Lock()
	revCost, revErr := n.oneWayCost(len(resp))
	n.mu.Unlock()
	if revErr != nil {
		return nil, fwdCost + revCost, revErr
	}
	return resp, fwdCost + revCost, nil
}

// Send delivers a one-way message (gossip) from→to, returning the
// simulated delay. The handler's response payload is discarded.
func (n *Network) Send(from, to NodeID, payload []byte) (time.Duration, error) {
	n.mu.Lock()
	h, dead, err := n.reach(to)
	if err != nil {
		n.mu.Unlock()
		return dead, err
	}
	cost, err := n.oneWayCost(len(payload))
	n.mu.Unlock()
	if err != nil {
		return cost, err
	}
	if _, err := h(from, payload); err != nil {
		return cost, fmt.Errorf("handler %q: %w", to, err)
	}
	return cost, nil
}
