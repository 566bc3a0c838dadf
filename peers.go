package approxcache

import (
	"fmt"
	"sort"
	"time"

	"approxcache/internal/p2p"
	"approxcache/internal/simnet"
)

// NewSimNetwork builds a simulated device-to-device wireless network
// with the default short-range link profile (~6 ms one-way, 1% loss),
// seeding jitter and loss from seed.
func NewSimNetwork(seed int64) (*SimNetwork, error) {
	return simnet.New(simnet.DefaultLinkProfile(), seed)
}

// clientConfig returns the peer-client policy bound to this cache's
// clock, so breaker backoffs elapse in the cache's (possibly virtual)
// time.
func (c *Cache) clientConfig() p2p.ClientConfig {
	cfg := p2p.DefaultClientConfig()
	cfg.Clock = c.clock
	return cfg
}

// JoinSimNetwork exposes this cache's store to peers on net under name
// and installs a peer client on the pipeline. Use ConnectAll (or
// client.SetPeers) to point the returned client at the other nodes.
func (c *Cache) JoinSimNetwork(net *SimNetwork, name string) (*PeerClient, error) {
	if net == nil {
		return nil, fmt.Errorf("approxcache: nil network")
	}
	client, err := p2p.JoinSimnet(net, name, c.store, c.clientConfig())
	if err != nil {
		return nil, fmt.Errorf("approxcache: join %q: %w", name, err)
	}
	c.engine.SetPeers(client)
	return client, nil
}

// ConnectAll points every client at all the *other* named nodes,
// forming a full mesh. A client added later is invisible to the mesh
// until ConnectAll runs again — so re-run it with the full map after
// joining or dropping a node (PeerClient.Peers shows each client's
// current list). ConnectAll is idempotent and cheap: each call
// just replaces peer lists (sorted, so mesh formation is
// deterministic), and re-running it never disturbs the health or
// breaker state of peers that stayed. It errors
// on an empty or single-entry map — a mesh of one cannot share
// anything, and silently accepting it has historically hidden
// setup-ordering bugs.
func ConnectAll(clients map[string]*PeerClient) error {
	if len(clients) < 2 {
		return fmt.Errorf("approxcache: ConnectAll needs at least 2 clients, got %d", len(clients))
	}
	names := make([]string, 0, len(clients))
	for name := range clients {
		names = append(names, name)
	}
	sort.Strings(names)
	for self, client := range clients {
		peers := make([]string, 0, len(names)-1)
		for _, name := range names {
			if name != self {
				peers = append(peers, name)
			}
		}
		client.SetPeers(peers)
	}
	return nil
}

// PeerHealth is the resilience layer's view of one peer: success and
// latency EWMAs, failure classification, and circuit-breaker state.
type PeerHealth = p2p.PeerHealth

// PeerHealthSnapshot is a point-in-time view of a client's peer health
// and breaker activity; obtain one with PeerClient.Health.
type PeerHealthSnapshot = p2p.HealthSnapshot

// BreakerState is one peer's circuit state (closed, open, half-open).
type BreakerState = p2p.BreakerState

// Circuit-breaker states.
const (
	BreakerClosed   = p2p.StateClosed
	BreakerOpen     = p2p.StateOpen
	BreakerHalfOpen = p2p.StateHalfOpen
)

// ServeTCP exposes this cache's store to peers over real TCP on addr
// (e.g. "127.0.0.1:0"), identifying as name in pings. Close the returned
// server when done.
func (c *Cache) ServeTCP(name, addr string) (*PeerServer, error) {
	svc, err := p2p.NewService(p2p.DefaultServiceConfig(name), c.store)
	if err != nil {
		return nil, fmt.Errorf("approxcache: peer service: %w", err)
	}
	srv, err := p2p.ListenAndServe(addr, svc)
	if err != nil {
		return nil, fmt.Errorf("approxcache: %w", err)
	}
	return srv, nil
}

// DialPeers installs a TCP peer client pointing at addrs
// ("host:port"), enabling the P2P gate against live nodes. The client
// pools one connection per peer; Close it when the cache is done.
func (c *Cache) DialPeers(addrs ...string) (*PeerClient, error) {
	tr, err := p2p.NewTCPTransport(2*time.Second, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("approxcache: transport: %w", err)
	}
	client, err := p2p.NewClient(c.clientConfig(), tr)
	if err != nil {
		return nil, fmt.Errorf("approxcache: peer client: %w", err)
	}
	client.SetPeers(addrs)
	c.engine.SetPeers(client)
	return client, nil
}
