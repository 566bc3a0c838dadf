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
	// ErrPartitioned is returned when the two nodes are disconnected.
	ErrPartitioned = errors.New("simnet: nodes partitioned")
	// ErrCrashed is returned when the destination node is crashed by
	// fault injection (registered, but down).
	ErrCrashed = errors.New("simnet: node crashed")
)

// LinkProfile describes one directed link's cost model.
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
	defaultLink LinkProfile

	mu        sync.Mutex
	rng       *rand.Rand
	nodes     map[NodeID]Handler
	links     map[[2]NodeID]LinkProfile
	cut       map[[2]NodeID]bool
	crashed   map[NodeID]bool
	corrupt   map[NodeID]bool
	linkFault map[[2]NodeID]faultOverlay
	nodeFault map[NodeID]faultOverlay
	deadCost  time.Duration
}

// faultOverlay is injected link degradation stacked on a link profile.
type faultOverlay struct {
	extraLatency time.Duration
	extraLoss    float64
}

// New builds a network whose unconfigured links use def, seeding all
// stochastic behaviour (jitter, loss) from seed.
func New(def LinkProfile, seed int64) (*Network, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	return &Network{
		defaultLink: def,
		rng:         rand.New(rand.NewSource(seed)),
		nodes:       make(map[NodeID]Handler),
		links:       make(map[[2]NodeID]LinkProfile),
		cut:         make(map[[2]NodeID]bool),
		crashed:     make(map[NodeID]bool),
		corrupt:     make(map[NodeID]bool),
		linkFault:   make(map[[2]NodeID]faultOverlay),
		nodeFault:   make(map[NodeID]faultOverlay),
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

// SetLink overrides the profile of the directed link a→b.
func (n *Network) SetLink(a, b NodeID, p LinkProfile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[[2]NodeID{a, b}] = p
	return nil
}

// Partition cuts both directions between a and b.
func (n *Network) Partition(a, b NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[[2]NodeID{a, b}] = true
	n.cut[[2]NodeID{b, a}] = true
}

// Heal restores both directions between a and b.
func (n *Network) Heal(a, b NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cut, [2]NodeID{a, b})
	delete(n.cut, [2]NodeID{b, a})
}

// SetDeadCost sets the simulated time a caller wastes before giving up
// on an unreachable (unregistered or partitioned) node — the timeout a
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

// linkFor returns the profile of a→b with any injected fault overlays
// (per-link, plus per-node on either endpoint) applied.
func (n *Network) linkFor(a, b NodeID) LinkProfile {
	p, ok := n.links[[2]NodeID{a, b}]
	if !ok {
		p = n.defaultLink
	}
	apply := func(o faultOverlay) {
		p.Latency += o.extraLatency
		p.LossProb += o.extraLoss
	}
	if o, ok := n.linkFault[[2]NodeID{a, b}]; ok {
		apply(o)
	}
	if o, ok := n.nodeFault[a]; ok {
		apply(o)
	}
	if o, ok := n.nodeFault[b]; ok && b != a {
		apply(o)
	}
	if p.LossProb > maxInjectedLoss {
		p.LossProb = maxInjectedLoss
	}
	return p
}

// oneWayCost draws the simulated delay for size bytes over p, or ErrLost.
// Caller holds n.mu.
func (n *Network) oneWayCost(p LinkProfile, size int) (time.Duration, error) {
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
	h, ok := n.nodes[to]
	if !ok {
		dead := n.deadCost
		n.mu.Unlock()
		return nil, dead, fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	if n.crashed[to] {
		dead := n.deadCost
		n.mu.Unlock()
		return nil, dead, fmt.Errorf("%w: %q", ErrCrashed, to)
	}
	if n.cut[[2]NodeID{from, to}] {
		dead := n.deadCost
		n.mu.Unlock()
		return nil, dead, fmt.Errorf("%w: %q↔%q", ErrPartitioned, from, to)
	}
	fwd := n.linkFor(from, to)
	fwdCost, fwdErr := n.oneWayCost(fwd, len(req))
	n.mu.Unlock()
	if fwdErr != nil {
		return nil, fwdCost, fwdErr
	}

	resp, err = h(from, req)
	if err != nil {
		return nil, fwdCost, fmt.Errorf("handler %q: %w", to, err)
	}

	n.mu.Lock()
	if n.corrupt[to] {
		resp = corruptPayload(resp)
	}
	rev := n.linkFor(to, from)
	revCost, revErr := n.oneWayCost(rev, len(resp))
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
	h, ok := n.nodes[to]
	if !ok {
		dead := n.deadCost
		n.mu.Unlock()
		return dead, fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	if n.crashed[to] {
		dead := n.deadCost
		n.mu.Unlock()
		return dead, fmt.Errorf("%w: %q", ErrCrashed, to)
	}
	if n.cut[[2]NodeID{from, to}] {
		dead := n.deadCost
		n.mu.Unlock()
		return dead, fmt.Errorf("%w: %q↔%q", ErrPartitioned, from, to)
	}
	p := n.linkFor(from, to)
	cost, err := n.oneWayCost(p, len(payload))
	n.mu.Unlock()
	if err != nil {
		return cost, err
	}
	if _, err := h(from, payload); err != nil {
		return cost, fmt.Errorf("handler %q: %w", to, err)
	}
	return cost, nil
}
