package p2p

import (
	"reflect"
	"testing"
	"time"

	"approxcache/internal/feature"
)

// warm inserts n distinct entries into svc's store.
func warm(t *testing.T, svc *Service, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := svc.store.Insert(
			feature.Vector{float64(i), 1}, "x", 0.9, "dnn", time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
}

// names returns the peer names of ranked, in order.
func names(ranked []Probed) []string {
	out := make([]string, len(ranked))
	for i, p := range ranked {
		out[i] = p.Name
	}
	return out
}

func TestRosterRefreshMarksAlive(t *testing.T) {
	cl, services, _ := newSimCluster(t, 2)
	warm(t, services[1], 1)
	ranked := cl.Probe("self", cl.Peers())
	if len(ranked) != 2 {
		t.Fatalf("answered = %+v", ranked)
	}
	if b := ranked[0]; b.Name != "peer-b" || b.Entries != 1 || b.RTT <= 0 {
		t.Fatalf("peer-b probe = %+v", b)
	}
	if got := peerHealth(t, cl, "peer-b"); got.Successes != 1 || got.State != StateClosed {
		t.Fatalf("peer-b health = %+v", got)
	}
}

// fartherTransport adds extra to the round trip of every call to peer.
type fartherTransport struct {
	Transport
	peer  string
	extra time.Duration
}

func (f fartherTransport) Call(peer string, req []byte) ([]byte, time.Duration, error) {
	resp, rtt, err := f.Transport.Call(peer, req)
	if peer == f.peer {
		rtt += f.extra
	}
	return resp, rtt, err
}

func TestRosterBestPrefersWarmPeers(t *testing.T) {
	_, services, net := newSimCluster(t, 5)
	warm(t, services[3], 3) // peer-d: warmest
	warm(t, services[1], 1) // peer-b and peer-c tie on entries...
	warm(t, services[2], 1)
	// ...and peer-c is farther, so peer-b's lower RTT ranks it first.
	tr, err := NewSimnetTransport("self", net)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(DefaultClientConfig(), fartherTransport{tr, "peer-c", 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// peer-a and peer-e tie on entries and RTT: name decides. Empty
	// names, self and duplicates are skipped, not pinged.
	ranked := cl.Probe("self", []string{"peer-e", "", "self", "peer-c", "peer-a", "peer-d", "peer-b", "peer-a"})
	want := []string{"peer-d", "peer-b", "peer-c", "peer-a", "peer-e"}
	if got := names(ranked); !reflect.DeepEqual(got, want) {
		t.Fatalf("ranking = %+v, want %v", ranked, want)
	}
	if ranked[1].RTT >= ranked[2].RTT || ranked[3].RTT != ranked[4].RTT {
		t.Fatalf("RTTs do not set up the tie-breaks: %+v", ranked)
	}
	if got := cl.WireStats().Kinds["ping"].SentMsgs; got != 5 {
		t.Fatalf("pings sent = %d, want one per distinct peer (5)", got)
	}
	for _, ph := range cl.Health().Peers {
		if ph.Peer == "" || ph.Peer == "self" {
			t.Fatalf("probe contacted %q", ph.Peer)
		}
	}
}

func TestRosterDeadPeerExcluded(t *testing.T) {
	cl, _, net := newSimCluster(t, 2)
	all := cl.Peers()
	cl.Probe("self", all)
	net.Crash("peer-a") // peer-a disappears
	for i := 0; i < failureThreshold; i++ {
		if got := names(cl.Probe("self", all)); !reflect.DeepEqual(got, []string{"peer-b"}) {
			t.Fatalf("probe %d answered by %v, want [peer-b]", i, got)
		}
	}
	if got := cl.Peers(); !reflect.DeepEqual(got, []string{"peer-b"}) {
		t.Fatalf("client peers = %v, dead peer still asked", got)
	}
	// The failed pings tripped peer-a's circuit. Probe pings every
	// candidate whatever its circuit, so once peer-a is back the next
	// probe heals the circuit without waiting out the backoff.
	if got := peerHealth(t, cl, "peer-a"); got.ConsecFailures != failureThreshold || got.State != StateOpen {
		t.Fatalf("peer-a after %d failed pings = %+v, want open", failureThreshold, got)
	}
	net.Restart("peer-a")
	if got := cl.Probe("self", all); len(got) != 2 {
		t.Fatalf("answered after restart = %+v, want both", got)
	}
	if got := peerHealth(t, cl, "peer-a").State; got != StateClosed {
		t.Fatalf("peer-a state after a successful probe = %v, want closed", got)
	}
}

func TestApplyBestUpdatesClient(t *testing.T) {
	cl, services, _ := newSimCluster(t, 3)
	warm(t, services[0], 1)
	cl.SetPeers(nil)
	ranked := cl.Probe("self", []string{"peer-c", "peer-b", "peer-a"})
	if got := cl.Peers(); !reflect.DeepEqual(got, names(ranked)) || got[0] != "peer-a" {
		t.Fatalf("client peers = %v, probe ranked %+v", got, ranked)
	}
}
