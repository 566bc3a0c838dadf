package p2p

import (
	"fmt"

	"approxcache/internal/cachestore"
	"approxcache/internal/lsh"
)

// ServiceConfig parameterizes a peer's serving side.
type ServiceConfig struct {
	// Name identifies this node in Pings/Pongs and logs.
	Name string
}

// Validate reports whether the configuration is usable.
func (c ServiceConfig) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("p2p: service needs a name")
	}
	return nil
}

// DefaultServiceConfig returns the serving configuration for name.
func DefaultServiceConfig(name string) ServiceConfig {
	return ServiceConfig{Name: name}
}

// serviceVote is the acceptance policy a service applies when answering
// queries: the engine's own default vote.
var serviceVote = lsh.DefaultVoteConfig()

// minGossipConfidence drops incoming gossip below it, an admission
// filter against polluting the local cache with peers' uncertain
// results.
const minGossipConfidence = 0.5

// Service answers peer protocol messages against a local cache store.
// Service is safe for concurrent use.
type Service struct {
	cfg   ServiceConfig
	store cachestore.Interface
}

// NewService builds a service over store.
func NewService(cfg ServiceConfig, store cachestore.Interface) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if store == nil {
		return nil, fmt.Errorf("p2p: nil store")
	}
	return &Service{cfg: cfg, store: store}, nil
}

// Name returns the node name.
func (s *Service) Name() string { return s.cfg.Name }

// HandleQuery answers a cache query with a homogenized-kNN vote over
// the local store.
func (s *Service) HandleQuery(q Query) (QueryResp, error) {
	if len(q.Vec) == 0 {
		return QueryResp{}, fmt.Errorf("p2p: empty query vector")
	}
	k := int(q.K)
	if k <= 0 || k > serviceVote.K {
		k = serviceVote.K
	}
	ns, err := cachestore.NearestWithinInto(s.store, q.Vec, k, serviceVote.MaxDistance, nil)
	if err != nil {
		return QueryResp{}, fmt.Errorf("nearest: %w", err)
	}
	// Quarantined entries are withheld from the index, so ns cannot
	// contain them, and the Label callback refuses them besides: a
	// suspect answer must not escape to the swarm through either path.
	verdict, err := lsh.Vote(ns, s.store.Label, serviceVote)
	if err != nil {
		return QueryResp{}, fmt.Errorf("vote: %w", err)
	}
	if !verdict.Accepted {
		return QueryResp{}, nil
	}
	return QueryResp{
		Found:      true,
		Label:      verdict.Label,
		Confidence: verdict.Confidence,
		Distance:   verdict.BestDistance,
	}, nil
}

// HandleGossip admits a peer's shared result into the local store if it
// clears the confidence filter and is not a near-duplicate of an
// existing entry.
func (s *Service) HandleGossip(g Gossip) error {
	if len(g.Vec) == 0 {
		return fmt.Errorf("p2p: empty gossip vector")
	}
	if g.Label == "" {
		return fmt.Errorf("p2p: empty gossip label")
	}
	if g.Confidence < minGossipConfidence {
		return nil // silently dropped by admission policy
	}
	// Near-duplicate suppression: if an entry with the same label
	// already sits within half the vote radius, the gossip adds no
	// information.
	ns, err := cachestore.NearestWithinInto(s.store, g.Vec, 1, serviceVote.MaxDistance/2, nil)
	if err != nil {
		return fmt.Errorf("nearest: %w", err)
	}
	if len(ns) == 1 && ns[0].Distance < serviceVote.MaxDistance/2 {
		if label, ok := s.store.Label(ns[0].ID); ok && label == g.Label {
			return nil
		}
	}
	if _, err := s.store.Insert(g.Vec, g.Label, g.Confidence, "peer", g.SavedCost); err != nil {
		return fmt.Errorf("insert gossip: %w", err)
	}
	return nil
}

// HandlePing answers a liveness probe with this node's identity and
// cache occupancy.
func (s *Service) HandlePing(Ping) Pong {
	return Pong{From: s.cfg.Name, Entries: uint32(s.store.Len())}
}

// HandleRaw decodes payload, dispatches to the matching handler, and
// encodes the response. It is the single entry point transports call;
// its signature (modulo the from argument's type) matches
// simnet.Handler.
func (s *Service) HandleRaw(from string, payload []byte) ([]byte, error) {
	return s.HandleRawAppend(from, payload, nil)
}

// HandleRawAppend is HandleRaw appending the response to buf, so
// connection loops can reuse one response buffer across exchanges
// instead of allocating per message.
func (s *Service) HandleRawAppend(from string, payload []byte, buf []byte) ([]byte, error) {
	msg, err := Decode(payload)
	if err != nil {
		return nil, fmt.Errorf("decode from %q: %w", from, err)
	}
	var resp Message
	switch m := msg.(type) {
	case Query:
		r, err := s.HandleQuery(m)
		if err != nil {
			return nil, err
		}
		resp = r
	case Gossip:
		if err := s.HandleGossip(m); err != nil {
			return nil, err
		}
		resp = Ack{}
	case Ping:
		resp = s.HandlePing(m)
	default:
		return nil, fmt.Errorf("p2p: unexpected request kind %v", msg.MsgKind())
	}
	out, err := AppendEncode(buf, resp)
	if err != nil {
		return nil, fmt.Errorf("encode response: %w", err)
	}
	return out, nil
}

// RadioEnergyModel estimates the radio energy cost of protocol traffic,
// for E1's energy-per-frame column. Defaults approximate short-range
// Wi-Fi: a fixed wake-up cost per message plus a per-byte cost.
type RadioEnergyModel struct {
	// PerMessageMJ is the fixed cost of sending or receiving one
	// message, in millijoules.
	PerMessageMJ float64
	// PerByteMJ is the marginal cost per payload byte.
	PerByteMJ float64
}

// DefaultRadioEnergyModel returns Wi-Fi-Direct-class constants.
func DefaultRadioEnergyModel() RadioEnergyModel {
	return RadioEnergyModel{PerMessageMJ: 0.8, PerByteMJ: 0.0008}
}

// MessageCost returns the energy to exchange a message of size bytes.
func (m RadioEnergyModel) MessageCost(size int) float64 {
	return m.PerMessageMJ + m.PerByteMJ*float64(size)
}

// RTTCost returns the energy of a request/response exchange.
func (m RadioEnergyModel) RTTCost(reqSize, respSize int) float64 {
	return m.MessageCost(reqSize) + m.MessageCost(respSize)
}
