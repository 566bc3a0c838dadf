package p2p

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/simclock"
	"approxcache/internal/simnet"
)

// newResilientCluster is newSimCluster with the client's breaker driven
// by a virtual clock, so tests can heal circuits by advancing time, and
// its configuration adjusted by muts.
func newResilientCluster(t *testing.T, n int, muts ...func(*ClientConfig)) (*Client, []*Service, *simnet.Network, *simclock.Virtual) {
	t.Helper()
	net, err := simnet.New(simnet.LinkProfile{
		Latency: 5 * time.Millisecond, BandwidthBps: 1 << 20,
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	services := make([]*Service, n)
	peerNames := make([]string, n)
	for i := 0; i < n; i++ {
		name := "peer-" + string(rune('a'+i))
		svc, err := NewService(DefaultServiceConfig(name), newStore(t, 32))
		if err != nil {
			t.Fatal(err)
		}
		if err := RegisterService(net, svc); err != nil {
			t.Fatal(err)
		}
		services[i] = svc
		peerNames[i] = name
	}
	tr, err := NewSimnetTransport("self", net)
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewVirtual(time.Unix(0, 0))
	cfg := DefaultClientConfig()
	cfg.Clock = clock
	for _, mut := range muts {
		mut(&cfg)
	}
	cl, err := NewClient(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetPeers(peerNames)
	return cl, services, net, clock
}

// peerHealth returns name's row of the client's health snapshot.
func peerHealth(t *testing.T, cl *Client, name string) PeerHealth {
	t.Helper()
	snap := cl.Health()
	for _, ph := range snap.Peers {
		if ph.Peer == name {
			return ph
		}
	}
	t.Fatalf("%s missing from %+v", name, snap.Peers)
	return PeerHealth{}
}

func TestClientBreakerExcludesCrashedPeer(t *testing.T) {
	cl, services, net, _ := newResilientCluster(t, 2)
	if _, err := services[1].store.Insert(feature.Vector{1, 0}, "cat", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	net.SetDeadCost(100 * time.Millisecond)
	net.Crash("peer-a")

	// Three queries trip peer-a's circuit (FailureThreshold = 3); each
	// still succeeds through peer-b.
	for i := 0; i < 3; i++ {
		out, err := cl.QueryFrame(feature.Vector{1, 0}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if out.Queried != 2 || !out.Found {
			t.Fatalf("query %d: %+v", i, out)
		}
		// The dead peer's radio timeout dominates the frame cost.
		if out.Cost != 100*time.Millisecond {
			t.Fatalf("query %d cost = %v, want dead cost", i, out.Cost)
		}
	}
	if got := peerHealth(t, cl, "peer-a").State; got != StateOpen {
		t.Fatalf("peer-a state = %v, want open", got)
	}

	// With the circuit open the dead peer is excluded: only peer-b is
	// asked and the frame no longer pays the dead cost.
	out, err := cl.QueryFrame(feature.Vector{1, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Queried != 1 || !out.Found || out.Hit.Peer != "peer-b" {
		t.Fatalf("post-trip query: %+v", out)
	}
	if out.Cost >= 100*time.Millisecond {
		t.Fatalf("post-trip cost %v still pays dead peer", out.Cost)
	}

	snap := cl.Health()
	if snap.Trips != 1 || snap.Recoveries != 0 {
		t.Fatalf("trips/recoveries = %d/%d", snap.Trips, snap.Recoveries)
	}
	if snap.Degraded {
		t.Fatal("degraded with a healthy peer remaining")
	}
}

func TestClientDegradedWhenAllPeersOpen(t *testing.T) {
	cl, _, net, _ := newResilientCluster(t, 1)
	net.Crash("peer-a")
	for i := 0; i < 3; i++ {
		if _, err := cl.QueryFrame(feature.Vector{1, 0}, 0); err != nil {
			t.Fatal(err)
		}
	}
	out, err := cl.QueryFrame(feature.Vector{1, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || out.Queried != 0 || out.Cost != 0 || out.Found {
		t.Fatalf("expected degraded zero-cost outcome, got %+v", out)
	}
	snap := cl.Health()
	if !snap.Degraded {
		t.Fatal("snapshot not degraded with every circuit open")
	}
	if snap.DegradedQueries != 1 {
		t.Fatalf("degraded queries = %d, want 1", snap.DegradedQueries)
	}
}

func TestClientBreakerRecoversAfterHeal(t *testing.T) {
	cl, services, net, clock := newResilientCluster(t, 1)
	if _, err := services[0].store.Insert(feature.Vector{1, 0}, "cat", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	net.Crash("peer-a")
	for i := 0; i < 3; i++ {
		if _, err := cl.QueryFrame(feature.Vector{1, 0}, 0); err != nil {
			t.Fatal(err)
		}
	}
	net.Restart("peer-a")

	// Still inside the backoff window: the query degrades.
	out, err := cl.QueryFrame(feature.Vector{1, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded {
		t.Fatalf("expected degraded inside backoff, got %+v", out)
	}

	// Past the backoff (250 ms ± 20% jitter) a half-open probe is
	// admitted, succeeds, and closes the circuit.
	clock.Advance(301 * time.Millisecond)
	out, err = cl.QueryFrame(feature.Vector{1, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found || out.Hit.Peer != "peer-a" {
		t.Fatalf("probe query: %+v", out)
	}
	snap := cl.Health()
	if snap.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", snap.Recoveries)
	}
	if got := peerHealth(t, cl, "peer-a").State; got != StateClosed {
		t.Fatalf("peer-a state = %v, want closed", got)
	}
}

func TestClientProbeOpenHealsCircuit(t *testing.T) {
	cl, _, net, _ := newResilientCluster(t, 1)
	net.Crash("peer-a")
	for i := 0; i < 3; i++ {
		if _, err := cl.QueryFrame(feature.Vector{1, 0}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := peerHealth(t, cl, "peer-a").State; got != StateOpen {
		t.Fatalf("state = %v, want open", got)
	}
	net.Restart("peer-a")
	// A ping to an open circuit is sent whatever the circuit says, so a
	// background re-probe heals it without waiting out the backoff; the
	// clock never advances here.
	if _, _, err := cl.Ping("self", "peer-a"); err != nil {
		t.Fatalf("ping after restart: %v", err)
	}
	if got := peerHealth(t, cl, "peer-a").State; got != StateClosed {
		t.Fatalf("state after probe = %v, want closed", got)
	}
	if snap := cl.Health(); snap.Recoveries != 1 || snap.Degraded {
		t.Fatalf("recoveries = %d degraded = %v, want 1 and false", snap.Recoveries, snap.Degraded)
	}
}

func TestClientQueryBudgetDiscardsLateAnswer(t *testing.T) {
	cl, services, _, _ := newResilientCluster(t, 1)
	if _, err := services[0].store.Insert(feature.Vector{1, 0}, "cat", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// One RTT on this cluster is ≥ 10 ms; a 1 ms budget discards the
	// answer and charges the peer a timeout.
	out, err := cl.QueryFrame(feature.Vector{1, 0}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if out.Found {
		t.Fatal("late answer was not discarded")
	}
	if out.Cost != time.Millisecond {
		t.Fatalf("cost = %v, want capped at budget", out.Cost)
	}
	if ph := peerHealth(t, cl, "peer-a"); ph.Timeouts != 1 || ph.Failures != 1 || ph.State != StateClosed {
		t.Fatalf("peer health = %+v, want 1 timeout, 1 failure, circuit closed", ph)
	}

	// A generous budget admits the same answer.
	out, err = cl.QueryFrame(feature.Vector{1, 0}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found || out.Hit.Label != "cat" {
		t.Fatalf("in-budget query: %+v", out)
	}
}

// TestClientObserverEvents: a trip and the half-open probe that heals
// it each count once in the client's Health snapshot, the one place
// that keeps them.
func TestClientObserverEvents(t *testing.T) {
	cl, _, net, clock := newResilientCluster(t, 1)
	net.Crash("peer-a")
	for i := 0; i < 3; i++ {
		cl.QueryFrame(feature.Vector{1, 0}, 0)
	}
	net.Restart("peer-a")
	clock.Advance(301 * time.Millisecond)
	for i := 0; i < 2; i++ {
		cl.QueryFrame(feature.Vector{1, 0}, 0)
	}
	if snap := cl.Health(); snap.Trips != 1 || snap.Recoveries != 1 || snap.Peers[0].Failures != 3 {
		t.Fatalf("health = %+v, want 1 trip, 1 recovery, 3 failures", snap)
	}
}

// TestClientHealthIncludesUnobservedPeers: every configured or
// contacted peer appears once, sorted by name, whether or not it was
// ever asked anything and whatever order it was configured in.
func TestClientHealthIncludesUnobservedPeers(t *testing.T) {
	cases := []struct {
		ping  []string // contacted before the snapshot
		peers []string // configured, in this order
		want  []string
	}{
		{peers: []string{"peer-a", "peer-b"}, want: []string{"peer-a", "peer-b"}},
		{ping: []string{"peer-c"}, peers: []string{"peer-b", "peer-a"}, want: []string{"peer-a", "peer-b", "peer-c"}},
	}
	for i, tc := range cases {
		cl, _, _, _ := newResilientCluster(t, 3)
		for _, name := range tc.ping {
			if _, _, err := cl.Ping("self", name); err != nil {
				t.Fatal(err)
			}
		}
		cl.SetPeers(tc.peers)
		snap := cl.Health()
		if len(snap.Peers) != len(tc.want) {
			t.Fatalf("case %d: snapshot peers = %+v, want %v", i, snap.Peers, tc.want)
		}
		for j, p := range snap.Peers {
			contacted := len(tc.ping) > 0 && p.Peer == tc.ping[0]
			if p.Peer != tc.want[j] || p.State != StateClosed || p.Failures != 0 || (p.Successes == 1) != contacted {
				t.Fatalf("case %d: peer %d = %+v, want %s", i, j, p, tc.want[j])
			}
		}
		if snap.Degraded {
			t.Fatalf("case %d: fresh client reads degraded", i)
		}
	}
}

// scriptTransport replays a scripted error per Send and rejects Call.
type scriptTransport struct {
	errs  []error
	sends int
}

func (s *scriptTransport) Call(string, []byte) ([]byte, time.Duration, error) {
	return nil, 0, errors.New("script: no call support")
}

func (s *scriptTransport) Send(string, []byte) (time.Duration, error) {
	var err error
	if s.sends < len(s.errs) {
		err = s.errs[s.sends]
	}
	s.sends++
	return time.Millisecond, err
}

func TestClientGossipRetriesOnLoss(t *testing.T) {
	tr := &scriptTransport{errs: []error{simnet.ErrLost, nil}}
	cfg := DefaultClientConfig()
	cl, err := NewClient(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetPeers([]string{"p"})
	cost, err := cl.Gossip(feature.Vector{1, 0}, "cat", 0.9, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if tr.sends != 2 {
		t.Fatalf("sends = %d, want a retry after loss", tr.sends)
	}
	if cost != time.Millisecond {
		t.Fatalf("cost = %v, want the successful send's", cost)
	}
}

func TestClientGossipDoesNotRetryHardFailures(t *testing.T) {
	tr := &scriptTransport{errs: []error{simnet.ErrCrashed, nil}}
	cl, err := NewClient(DefaultClientConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetPeers([]string{"p"})
	if _, err := cl.Gossip(feature.Vector{1, 0}, "cat", 0.9, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if tr.sends != 1 {
		t.Fatalf("sends = %d, want no retry on crash", tr.sends)
	}
}

func TestClientGossipRetryBound(t *testing.T) {
	tr := &scriptTransport{errs: []error{simnet.ErrLost, simnet.ErrLost, simnet.ErrLost}}
	cl, err := NewClient(DefaultClientConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetPeers([]string{"p"})
	cost, err := cl.Gossip(feature.Vector{1, 0}, "cat", 0.9, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if tr.sends != gossipAttempts {
		t.Fatalf("sends = %d, want exactly %d attempts", tr.sends, gossipAttempts)
	}
	if cost != 0 {
		t.Fatalf("cost = %v, want 0 for all-lost gossip", cost)
	}
}

// TestClientCachedReplayClaimsNoProbe: a query answered from the TTL
// cache sends nothing, so it must not claim a half-open probe — a
// claimed probe that is never sent is never resolved, and every later
// query would find the peer refused and degrade for good.
func TestClientCachedReplayClaimsNoProbe(t *testing.T) {
	cl, _, net, clock := newResilientCluster(t, 1, func(c *ClientConfig) { c.CoalesceTTL = time.Hour })
	cached := feature.Vector{0, 1}
	if out, err := cl.QueryFrame(cached, 0); err != nil || out.Queried != 1 {
		t.Fatalf("first query: %+v, %v", out, err)
	}
	net.Crash("peer-a")
	for i := 0; i < failureThreshold; i++ {
		cl.QueryFrame(feature.Vector{1, float64(i)}, 0)
	}
	if got := peerHealth(t, cl, "peer-a").State; got != StateOpen {
		t.Fatalf("peer-a state = %v, want open", got)
	}
	net.Restart("peer-a")
	clock.Advance(301 * time.Millisecond)
	if out, err := cl.QueryFrame(cached, 0); err != nil || out.Queried != 0 || out.Degraded {
		t.Fatalf("replay = %+v, %v; want served from the cache", out, err)
	}
	out, err := cl.QueryFrame(feature.Vector{1, 5}, 0)
	if err != nil || out.Queried != 1 || out.Degraded {
		t.Fatalf("fresh vector after the replay: %+v, %v; want the peer asked", out, err)
	}
	if got := peerHealth(t, cl, "peer-a").State; got != StateClosed {
		t.Fatalf("peer-a state = %v, want closed after the probe", got)
	}
}

// TestClientFollowerClaimsNoProbe: of two concurrent identical queries
// only the one that leads the exchange may claim a half-open probe. A
// follower that claimed one would join the leader's flight and never
// send it. Each trial races the pair while peer-b is due a probe, then
// checks that a fresh vector reaches both peers.
func TestClientFollowerClaimsNoProbe(t *testing.T) {
	cl, _, net, clock := newResilientCluster(t, 2)
	for trial := 0; trial < 500; trial++ {
		net.Crash("peer-b")
		for i := 0; i < failureThreshold; i++ {
			cl.QueryFrame(feature.Vector{float64(i), 1}, 0)
		}
		net.Restart("peer-b")
		clock.Advance(301 * time.Millisecond)
		vec := feature.Vector{1, float64(trial)}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				cl.QueryFrame(vec, 0)
			}()
		}
		close(start)
		wg.Wait()
		out, err := cl.QueryFrame(feature.Vector{2, float64(trial)}, 0)
		if err != nil || out.Queried != 2 {
			t.Fatalf("trial %d: fresh vector after two identical queries: %+v, %v; want both peers asked", trial, out, err)
		}
	}
}

// TestClientPeerTableConcurrent drives one client from 8 goroutines —
// queries, gossip, pings, peer-set changes, peer crashes and restarts,
// clock advances — over a lossy network, and
// checks every health snapshot: peers sorted and unique, a contacted
// peer never vanishing, per-peer exchange counts never shrinking, never
// more recoveries than trips. Run it under -race.
func TestClientPeerTableConcurrent(t *testing.T) {
	net, err := simnet.New(simnet.LinkProfile{Latency: 2 * time.Millisecond, LossProb: 0.2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"peer-a", "peer-b", "peer-c", "peer-d"}
	for _, name := range names {
		svc, err := NewService(DefaultServiceConfig(name), newStore(t, 32))
		if err != nil {
			t.Fatal(err)
		}
		if err := RegisterService(net, svc); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := NewSimnetTransport("self", net)
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewVirtual(t0)
	cl, err := NewClient(ClientConfig{Clock: clock, CoalesceTTL: 50 * time.Millisecond, GossipBatch: 4}, tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetPeers(names[:3])
	const workers, ops = 8, 300
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			seen := map[string]int{} // exchanges per contacted peer
			for i := 0; i < ops; i++ {
				name := names[rng.Intn(len(names))]
				vec := feature.Vector{float64(rng.Intn(4)), float64(rng.Intn(4))}
				switch rng.Intn(7) {
				case 0:
					cl.Gossip(vec, "cat", 0.9, time.Millisecond)
				case 1:
					cl.Ping("self", name)
				case 2:
					perm := rng.Perm(len(names))[:1+rng.Intn(len(names))]
					peers := make([]string, len(perm))
					for j, k := range perm {
						peers[j] = names[k]
					}
					cl.SetPeers(peers)
				case 3:
					if rng.Intn(2) == 0 {
						net.Crash(simnet.NodeID(name))
					} else {
						net.Restart(simnet.NodeID(name))
					}
					clock.Advance(100 * time.Millisecond)
				default:
					cl.QueryFrame(vec, 0)
				}
				if err := checkSnapshot(cl.Health(), seen); err != nil {
					errs <- fmt.Errorf("worker %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// A configured peer is listed before it is ever contacted.
	cl.SetPeers([]string{"zz-never-contacted", "peer-a"})
	snap := cl.Health()
	if last := snap.Peers[len(snap.Peers)-1]; last.Peer != "zz-never-contacted" || last.Successes+last.Failures != 0 {
		t.Fatalf("unconfigured-then-configured peer missing: %+v", snap.Peers)
	}
}

// checkSnapshot asserts one health snapshot's invariants against the
// exchange counts seen in the caller's earlier snapshots.
func checkSnapshot(snap HealthSnapshot, seen map[string]int) error {
	if snap.Trips < snap.Recoveries {
		return fmt.Errorf("%d recoveries after only %d trips", snap.Recoveries, snap.Trips)
	}
	listed := make(map[string]bool, len(snap.Peers))
	for i, ph := range snap.Peers {
		if i > 0 && snap.Peers[i-1].Peer >= ph.Peer {
			return fmt.Errorf("peers not sorted and unique: %q before %q", snap.Peers[i-1].Peer, ph.Peer)
		}
		listed[ph.Peer] = true
		n := ph.Successes + ph.Failures
		if n < seen[ph.Peer] {
			return fmt.Errorf("%s exchanges went from %d to %d", ph.Peer, seen[ph.Peer], n)
		}
		if n > 0 {
			seen[ph.Peer] = n
		}
	}
	for name := range seen {
		if !listed[name] {
			return fmt.Errorf("contacted peer %s vanished from %+v", name, snap.Peers)
		}
	}
	return nil
}
