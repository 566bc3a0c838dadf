package p2p

import (
	"testing"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/simnet"
)

// newSimCluster builds n peer services named peer-0..peer-(n-1) on one
// lossless simnet, plus a client at node "self".
func newSimCluster(t *testing.T, n int) (*Client, []*Service, *simnet.Network) {
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
	cl, err := NewClient(DefaultClientConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetPeers(peerNames)
	return cl, services, net
}

func TestClientConfigValidate(t *testing.T) {
	if err := DefaultClientConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []ClientConfig{
		{CoalesceTTL: -time.Second},
		{GossipBatch: -1},
		{GossipBatch: MaxGossipBatch + 1},
		{GossipFlush: -time.Millisecond},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := NewClient(ClientConfig{}, nil); err == nil {
		t.Fatal("bad client accepted")
	}
	tr := &SimnetTransport{}
	if _, err := NewClient(DefaultClientConfig(), tr); err != nil {
		t.Fatal(err)
	}
}

func TestNewSimnetTransportValidation(t *testing.T) {
	net, err := simnet.New(simnet.DefaultLinkProfile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSimnetTransport("", net); err == nil {
		t.Fatal("empty self accepted")
	}
	if _, err := NewSimnetTransport("a", nil); err == nil {
		t.Fatal("nil network accepted")
	}
}

func TestClientQueryNoPeers(t *testing.T) {
	cl, _, _ := newSimCluster(t, 1)
	cl.SetPeers(nil)
	_, cost, found, err := cl.Query(feature.Vector{1, 0})
	if err != nil || found || cost != 0 {
		t.Fatalf("no-peer query: cost=%v found=%v err=%v", cost, found, err)
	}
}

func TestClientQueryHitsBestPeer(t *testing.T) {
	cl, services, _ := newSimCluster(t, 2)
	// Peer a has a far entry with a different label; peer b has a
	// close entry. The client must pick peer b's answer.
	if _, err := services[0].Store().Insert(feature.Vector{1, 0.2}, "dog", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := services[1].Store().Insert(feature.Vector{1, 0.01}, "cat", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	hit, cost, found, err := cl.Query(feature.Vector{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !found || hit.Label != "cat" || hit.Peer != "peer-b" {
		t.Fatalf("hit = %+v found=%v", hit, found)
	}
	if cost < 10*time.Millisecond {
		t.Fatalf("cost %v below one RTT", cost)
	}
}

func TestClientQueryMissWhenAllFar(t *testing.T) {
	cl, services, _ := newSimCluster(t, 2)
	if _, err := services[0].Store().Insert(feature.Vector{-1, 0}, "dog", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	_, cost, found, err := cl.Query(feature.Vector{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("far entry produced a hit")
	}
	if cost == 0 {
		t.Fatal("miss should still cost the query RTT")
	}
}

func TestClientQuerySurvivesDeadPeer(t *testing.T) {
	cl, services, net := newSimCluster(t, 2)
	if _, err := services[1].Store().Insert(feature.Vector{1, 0}, "cat", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	net.Unregister("peer-a")
	hit, _, found, err := cl.Query(feature.Vector{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !found || hit.Peer != "peer-b" {
		t.Fatalf("query did not survive dead peer: %+v found=%v", hit, found)
	}
}

func TestClientGossipReachesPeers(t *testing.T) {
	cl, services, _ := newSimCluster(t, 3)
	cost, err := cl.Gossip(feature.Vector{1, 0}, "cat", 0.9, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatalf("gossip cost = %v", cost)
	}
	for i, svc := range services {
		if svc.Store().Len() != 1 {
			t.Fatalf("peer %d did not receive gossip", i)
		}
	}
	// Gossiped entries are queryable by other peers afterwards.
	hit, _, found, err := cl.Query(feature.Vector{1, 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if !found || hit.Label != "cat" {
		t.Fatalf("gossiped entry not queryable: %+v", hit)
	}
}

// TestClientGossipFanout: gossip fans out to every admitted peer — all
// of them while healthy, none whose circuit is open.
func TestClientGossipFanout(t *testing.T) {
	cl, services, net, _ := newResilientCluster(t, 3)
	net.Crash("peer-c")
	for i := 0; i < failureThreshold; i++ {
		cl.QueryFrame(feature.Vector{0, float64(i + 1)}, 0)
	}
	net.Restart("peer-c")
	if _, err := cl.Gossip(feature.Vector{1, 0}, "cat", 0.9, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{1, 1, 0} {
		if got := services[i].Store().Len(); got != want {
			t.Fatalf("peer %d holds %d gossiped entries, want %d", i, got, want)
		}
	}
	if ph := peerHealth(t, cl, "peer-c"); ph.State != StateOpen || ph.Failures+ph.Successes != failureThreshold {
		t.Fatalf("gossip reached the open peer: %+v", ph)
	}
}

func TestClientGossipNoPeers(t *testing.T) {
	cl, _, _ := newSimCluster(t, 1)
	cl.SetPeers(nil)
	cost, err := cl.Gossip(feature.Vector{1, 0}, "cat", 0.9, time.Millisecond)
	if err != nil || cost != 0 {
		t.Fatalf("no-peer gossip: cost=%v err=%v", cost, err)
	}
}

func TestClientPing(t *testing.T) {
	cl, services, _ := newSimCluster(t, 1)
	if _, err := services[0].Store().Insert(feature.Vector{1, 0}, "cat", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	pong, rtt, err := cl.Ping("self", "peer-a")
	if err != nil {
		t.Fatal(err)
	}
	if pong.From != "peer-a" || pong.Entries != 1 {
		t.Fatalf("pong = %+v", pong)
	}
	if rtt <= 0 {
		t.Fatalf("rtt = %v", rtt)
	}
}

func TestSetPeersCopies(t *testing.T) {
	cl, _, _ := newSimCluster(t, 1)
	peers := []string{"x", "y"}
	cl.SetPeers(peers)
	peers[0] = "mutated"
	if cl.Peers()[0] != "x" {
		t.Fatal("SetPeers aliases caller slice")
	}
	got := cl.Peers()
	got[0] = "mutated"
	if cl.Peers()[0] != "x" {
		t.Fatal("Peers exposes internal slice")
	}
}
