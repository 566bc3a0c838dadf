// Fault injection: imperative per-node/per-link fault toggles on a
// Network, plus a declarative FaultPlan that a clock-driven scheduler
// replays during an experiment. Chaos tests use it to crash, partition,
// degrade, and heal peers at scripted virtual-time offsets and assert
// the pipeline degrades gracefully.
package simnet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"approxcache/internal/simclock"
)

// maxInjectedLoss caps stacked loss probability so a link stays a
// valid (sub-certain) Bernoulli drop, even under extreme injection.
const maxInjectedLoss = 0.999

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

// SetNodeFault degrades every link touching id by extraLatency and
// extraLoss (stacked on the link profile, loss capped below 1).
// Zero/zero clears the fault.
func (n *Network) SetNodeFault(id NodeID, extraLatency time.Duration, extraLoss float64) error {
	if extraLatency < 0 || extraLoss < 0 {
		return fmt.Errorf("simnet: negative fault magnitudes (%v, %v)", extraLatency, extraLoss)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if extraLatency == 0 && extraLoss == 0 {
		delete(n.nodeFault, id)
		return nil
	}
	n.nodeFault[id] = faultOverlay{extraLatency: extraLatency, extraLoss: extraLoss}
	return nil
}

// SetLinkFault degrades the directed link a→b by extraLatency and
// extraLoss. Zero/zero clears the fault.
func (n *Network) SetLinkFault(a, b NodeID, extraLatency time.Duration, extraLoss float64) error {
	if extraLatency < 0 || extraLoss < 0 {
		return fmt.Errorf("simnet: negative fault magnitudes (%v, %v)", extraLatency, extraLoss)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if extraLatency == 0 && extraLoss == 0 {
		delete(n.linkFault, [2]NodeID{a, b})
		return nil
	}
	n.linkFault[[2]NodeID{a, b}] = faultOverlay{extraLatency: extraLatency, extraLoss: extraLoss}
	return nil
}

// SetCorrupt makes (or stops making) node id's responses arrive
// bit-flipped, so callers exercise their hostile-input handling.
func (n *Network) SetCorrupt(id NodeID, on bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if on {
		n.corrupt[id] = true
	} else {
		delete(n.corrupt, id)
	}
}

// corruptPayload returns a deterministically bit-flipped copy of p (the
// original is not aliased, as handlers may retain their buffers).
func corruptPayload(p []byte) []byte {
	out := make([]byte, len(p))
	for i, b := range p {
		out[i] = b ^ 0x5a
	}
	return out
}

// FaultKind identifies one scheduled fault action.
type FaultKind int

// Supported fault kinds.
const (
	// FaultCrash takes Node down (ErrCrashed on every exchange).
	FaultCrash FaultKind = iota + 1
	// FaultRestart brings Node back up.
	FaultRestart
	// FaultPartition cuts both directions between A and B.
	FaultPartition
	// FaultHeal restores both directions between A and B.
	FaultHeal
	// FaultLatencySpike adds ExtraLatency/ExtraLoss to every link
	// touching Node (per-node degradation).
	FaultLatencySpike
	// FaultLossBurst is FaultLatencySpike spelled for loss-dominant
	// injection; both kinds apply both magnitudes.
	FaultLossBurst
	// FaultCorrupt makes Node's responses arrive bit-flipped.
	FaultCorrupt
	// FaultClear clears Node's latency/loss/corruption faults (crash
	// and partitions are cleared by FaultRestart/FaultHeal).
	FaultClear
)

// String returns the kind name.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultRestart:
		return "restart"
	case FaultPartition:
		return "partition"
	case FaultHeal:
		return "heal"
	case FaultLatencySpike:
		return "latency-spike"
	case FaultLossBurst:
		return "loss-burst"
	case FaultCorrupt:
		return "corrupt"
	case FaultClear:
		return "clear"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultEvent is one scheduled fault.
type FaultEvent struct {
	// At is the event's offset from the scheduler's start.
	At time.Duration
	// Kind selects the action.
	Kind FaultKind
	// Node targets node-scoped kinds (crash, restart, latency spike,
	// loss burst, corrupt, clear).
	Node NodeID
	// A, B target link-scoped kinds (partition, heal).
	A, B NodeID
	// ExtraLatency and ExtraLoss are the spike/burst magnitudes.
	ExtraLatency time.Duration
	// ExtraLoss is added to the link loss probability (capped below 1).
	ExtraLoss float64
}

// Validate reports whether the event is well-formed.
func (e FaultEvent) Validate() error {
	if e.At < 0 {
		return fmt.Errorf("simnet: fault at negative offset %v", e.At)
	}
	switch e.Kind {
	case FaultCrash, FaultRestart, FaultCorrupt, FaultClear:
		if e.Node == "" {
			return fmt.Errorf("simnet: %v fault needs Node", e.Kind)
		}
	case FaultLatencySpike, FaultLossBurst:
		if e.Node == "" {
			return fmt.Errorf("simnet: %v fault needs Node", e.Kind)
		}
		if e.ExtraLatency < 0 || e.ExtraLoss < 0 {
			return fmt.Errorf("simnet: %v fault needs non-negative magnitudes", e.Kind)
		}
	case FaultPartition, FaultHeal:
		if e.A == "" || e.B == "" {
			return fmt.Errorf("simnet: %v fault needs A and B", e.Kind)
		}
	default:
		return fmt.Errorf("simnet: unknown fault kind %d", int(e.Kind))
	}
	return nil
}

// FaultPlan is a schedule of fault events, applied in At order.
type FaultPlan []FaultEvent

// Validate reports whether every event is well-formed.
func (p FaultPlan) Validate() error {
	for i, e := range p {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// FaultScheduler replays a FaultPlan against a network on an injected
// clock. It is deterministic and goroutine-free: callers Tick it at
// convenient points (e.g. between frames) and every event whose offset
// has elapsed is applied, in order. FaultScheduler is safe for
// concurrent use.
type FaultScheduler struct {
	net   *Network
	clock simclock.Clock

	muSched sync.Mutex
	start   time.Time
	plan    FaultPlan
	next    int
}

// NewFaultScheduler builds a scheduler over net starting at clock.Now().
// The plan is copied and sorted by offset (stable, so same-offset
// events keep their declared order).
func NewFaultScheduler(net *Network, clock simclock.Clock, plan FaultPlan) (*FaultScheduler, error) {
	if net == nil {
		return nil, fmt.Errorf("simnet: nil network")
	}
	if clock == nil {
		return nil, fmt.Errorf("simnet: nil clock")
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	sorted := append(FaultPlan(nil), plan...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	return &FaultScheduler{net: net, clock: clock, start: clock.Now(), plan: sorted}, nil
}

// Tick applies every not-yet-applied event whose offset has elapsed and
// returns how many were applied.
func (s *FaultScheduler) Tick() int {
	elapsed := s.clock.Now().Sub(s.start)
	s.muSched.Lock()
	defer s.muSched.Unlock()
	applied := 0
	for s.next < len(s.plan) && s.plan[s.next].At <= elapsed {
		s.apply(s.plan[s.next])
		s.next++
		applied++
	}
	return applied
}

// apply executes one (already validated) event.
func (s *FaultScheduler) apply(e FaultEvent) {
	switch e.Kind {
	case FaultCrash:
		s.net.Crash(e.Node)
	case FaultRestart:
		s.net.Restart(e.Node)
	case FaultPartition:
		s.net.Partition(e.A, e.B)
	case FaultHeal:
		s.net.Heal(e.A, e.B)
	case FaultLatencySpike, FaultLossBurst:
		_ = s.net.SetNodeFault(e.Node, e.ExtraLatency, e.ExtraLoss)
	case FaultCorrupt:
		s.net.SetCorrupt(e.Node, true)
	case FaultClear:
		_ = s.net.SetNodeFault(e.Node, 0, 0)
		s.net.SetCorrupt(e.Node, false)
	}
}
