package p2p

import (
	"testing"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/simclock"
	"approxcache/internal/simnet"
)

func newRosterCluster(t *testing.T, n int) (*Roster, *Client, []*Service, *simnet.Network) {
	t.Helper()
	cl, services, net := newSimCluster(t, n)
	clock := simclock.NewVirtual(time.Unix(0, 0))
	roster, err := NewRoster("self", cl, clock)
	if err != nil {
		t.Fatal(err)
	}
	roster.Add(cl.Peers()...)
	return roster, cl, services, net
}

func TestNewRosterValidation(t *testing.T) {
	cl, _, _ := newSimCluster(t, 1)
	clock := simclock.NewVirtual(time.Unix(0, 0))
	if _, err := NewRoster("", cl, clock); err == nil {
		t.Fatal("empty self accepted")
	}
	if _, err := NewRoster("s", nil, clock); err == nil {
		t.Fatal("nil client accepted")
	}
	if _, err := NewRoster("s", cl, nil); err == nil {
		t.Fatal("nil clock accepted")
	}
}

func TestRosterAddKnownRemove(t *testing.T) {
	roster, _, _, _ := newRosterCluster(t, 3)
	if got := roster.Known(); len(got) != 3 {
		t.Fatalf("known = %v", got)
	}
	roster.Add("", "self", "peer-a") // ignored: empty, self, duplicate
	if got := roster.Known(); len(got) != 3 {
		t.Fatalf("known after noise = %v", got)
	}
	roster.Remove("peer-a")
	if got := roster.Known(); len(got) != 2 {
		t.Fatalf("known after remove = %v", got)
	}
	if _, ok := roster.Info("peer-a"); ok {
		t.Fatal("removed peer still has info")
	}
}

func TestRosterRefreshMarksAlive(t *testing.T) {
	roster, _, services, _ := newRosterCluster(t, 2)
	// Warm one peer so warmth ordering is observable.
	if _, err := services[1].Store().Insert(feature.Vector{1, 0}, "cat", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	alive := roster.Refresh()
	if alive != 2 {
		t.Fatalf("alive = %d", alive)
	}
	info, ok := roster.Info("peer-b")
	if !ok || !info.Alive || info.Entries != 1 || info.RTT <= 0 {
		t.Fatalf("peer-b info = %+v", info)
	}
	if info.LastSeen.IsZero() {
		t.Fatal("LastSeen not set")
	}
}

func TestRosterBestPrefersWarmPeers(t *testing.T) {
	roster, _, services, _ := newRosterCluster(t, 3)
	for i := 0; i < 3; i++ {
		if _, err := services[2].Store().Insert(
			feature.Vector{float64(i), 1}, "x", 0.9, "dnn", time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := services[1].Store().Insert(feature.Vector{1, 0}, "x", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	roster.Refresh()
	best := roster.Best(2)
	if len(best) != 2 || best[0] != "peer-c" || best[1] != "peer-b" {
		t.Fatalf("best = %v", best)
	}
	all := roster.Best(0)
	if len(all) != 3 {
		t.Fatalf("best(0) = %v", all)
	}
}

func TestRosterDeadPeerExcluded(t *testing.T) {
	roster, cl, _, net := newRosterCluster(t, 2)
	roster.Refresh()
	net.Crash("peer-a") // peer-a disappears
	for i := 0; i < failureThreshold; i++ {
		roster.Refresh()
	}
	info, _ := roster.Info("peer-a")
	if info.Alive || info.Failures != failureThreshold {
		t.Fatalf("dead peer still alive: %+v", info)
	}
	for _, name := range roster.Best(0) {
		if name == "peer-a" {
			t.Fatal("dead peer ranked")
		}
	}
	// The failed pings tripped peer-a's circuit. Refresh pings every
	// known peer whatever its circuit, so once peer-a is back the next
	// round heals the circuit without waiting out the backoff.
	if got := peerHealth(t, cl, "peer-a").State; got != StateOpen {
		t.Fatalf("peer-a state after %d failed pings = %v, want open", failureThreshold, got)
	}
	net.Restart("peer-a")
	if alive := roster.Refresh(); alive != 2 {
		t.Fatalf("alive after restart = %d, want 2", alive)
	}
	if got := peerHealth(t, cl, "peer-a").State; got != StateClosed {
		t.Fatalf("peer-a state after a successful refresh = %v, want closed", got)
	}
}

func TestApplyBestUpdatesClient(t *testing.T) {
	roster, cl, services, _ := newRosterCluster(t, 3)
	if _, err := services[0].Store().Insert(feature.Vector{1, 0}, "x", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	best := roster.ApplyBest(1)
	if len(best) != 1 || best[0] != "peer-a" {
		t.Fatalf("best = %v", best)
	}
	if got := cl.Peers(); len(got) != 1 || got[0] != "peer-a" {
		t.Fatalf("client peers = %v", got)
	}
}
