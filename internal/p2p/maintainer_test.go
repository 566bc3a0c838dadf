package p2p

import (
	"testing"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/simnet"
)

func TestMaintainerConfigValidate(t *testing.T) {
	if err := DefaultMaintainerConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (MaintainerConfig{Interval: 0}).Validate(); err == nil {
		t.Fatal("zero interval accepted")
	}
	if err := (MaintainerConfig{Interval: time.Second, Fanout: -1}).Validate(); err == nil {
		t.Fatal("negative fanout accepted")
	}
}

func TestStartMaintainerValidation(t *testing.T) {
	if _, err := StartMaintainer(MaintainerConfig{}, nil); err == nil {
		t.Fatal("bad config accepted")
	}
	if _, err := StartMaintainer(DefaultMaintainerConfig(), nil); err == nil {
		t.Fatal("nil roster accepted")
	}
}

func TestMaintainerInitialRefreshAndShutdown(t *testing.T) {
	roster, cl, services, _ := newRosterCluster(t, 2)
	if _, err := services[1].Store().Insert(feature.Vector{1, 0}, "x", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	m, err := StartMaintainer(MaintainerConfig{Interval: time.Hour, Fanout: 1}, roster)
	if err != nil {
		t.Fatal(err)
	}
	// The synchronous initial refresh already ranked the peers.
	if got := cl.Peers(); len(got) != 1 || got[0] != "peer-b" {
		t.Fatalf("client peers after start = %v", got)
	}
	if m.Refreshes() != 1 {
		t.Fatalf("refreshes = %d", m.Refreshes())
	}
	m.Shutdown()
	m.Shutdown() // idempotent
}

func TestMaintainerRefreshesDigests(t *testing.T) {
	roster, cl, services, _ := newRosterCluster(t, 2)
	if _, err := services[0].Store().Insert(feature.Vector{1, 0}, "cat", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	m, err := StartMaintainer(MaintainerConfig{
		Interval: time.Hour, Fanout: 0, RefreshDigests: true,
	}, roster)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	// The initial refresh fetched digests: a query far from peer-a's
	// only cluster skips it.
	_, _, _, err = cl.Query(feature.Vector{-1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if cl.SkippedQueries() == 0 {
		t.Fatal("maintainer did not install digests")
	}
}

func TestMaintainerPeriodicRefresh(t *testing.T) {
	roster, cl, services, net := newRosterCluster(t, 2)
	m, err := StartMaintainer(MaintainerConfig{Interval: 5 * time.Millisecond, Fanout: 0}, roster)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	if len(cl.Peers()) != 2 {
		t.Fatalf("initial peers = %v", cl.Peers())
	}
	// Kill a peer; the loop must drop it from the client within a few
	// intervals.
	net.Unregister(simnet.NodeID(services[0].Name()))
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if peers := cl.Peers(); len(peers) == 1 && peers[0] == services[1].Name() {
			if m.Refreshes() < 2 {
				t.Fatalf("refreshes = %d, want periodic activity", m.Refreshes())
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("dead peer never dropped: %v", cl.Peers())
}
