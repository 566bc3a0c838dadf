// Package p2p implements the infrastructure-less peer-to-peer reuse
// protocol: nearby devices answer approximate cache queries for each
// other and gossip fresh recognition results so the collaborative cache
// warms up.
//
// The protocol is transport-agnostic. Two transports are provided: a
// simulated wireless network (internal/simnet) for deterministic
// experiments, and a real TCP transport for live nodes
// (cmd/cachenode, examples/livepeers).
package p2p

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"approxcache/internal/feature"
)

// Kind discriminates wire messages.
type Kind uint8

// Wire message kinds.
const (
	KindQuery Kind = iota + 1
	KindQueryResp
	KindGossip
	KindAck
	KindPing
	KindPong
	// 7 to 11 are retired: 7 to 10 were coverage-digest requests and
	// responses, full and then delta (no node fetched a digest), 11 a
	// batch of gossip items (no client queued gossip). Frames of those
	// kinds decode as ErrUnknownKind.
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindQuery:
		return "query"
	case KindQueryResp:
		return "query-resp"
	case KindGossip:
		return "gossip"
	case KindAck:
		return "ack"
	case KindPing:
		return "ping"
	case KindPong:
		return "pong"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Message is any wire message.
type Message interface {
	// MsgKind returns the message's wire discriminator.
	MsgKind() Kind
}

// Query asks a peer to look up Vec in its approximate cache.
type Query struct {
	// Vec is the query feature vector.
	Vec feature.Vector
	// K is how many neighbors the peer should consider in its vote.
	K uint8
}

// MsgKind implements Message.
func (Query) MsgKind() Kind { return KindQuery }

// QueryResp answers a Query.
type QueryResp struct {
	// Found reports whether the peer's vote accepted a cached label.
	Found bool
	// Label is the cached label (valid only when Found).
	Label string
	// Confidence is the peer's vote confidence.
	Confidence float64
	// Distance is the best supporting neighbor's distance; the
	// requester uses it to pick the best answer across peers.
	Distance float64
}

// MsgKind implements Message.
func (QueryResp) MsgKind() Kind { return KindQueryResp }

// Gossip shares one fresh recognition result with a peer.
type Gossip struct {
	Vec        feature.Vector
	Label      string
	Confidence float64
	// SavedCost is the inference cost the entry avoids, used by
	// cost-aware eviction at the receiver.
	SavedCost time.Duration
}

// MsgKind implements Message.
func (Gossip) MsgKind() Kind { return KindGossip }

// Ack acknowledges a Gossip.
type Ack struct{}

// MsgKind implements Message.
func (Ack) MsgKind() Kind { return KindAck }

// Ping probes a peer's liveness.
type Ping struct {
	// From identifies the sender.
	From string
}

// MsgKind implements Message.
func (Ping) MsgKind() Kind { return KindPing }

// Pong answers a Ping.
type Pong struct {
	// From identifies the responder.
	From string
	// Entries is the responder's current cache size, advertised so
	// requesters can prefer warm peers.
	Entries uint32
}

// MsgKind implements Message.
func (Pong) MsgKind() Kind { return KindPong }

// Codec errors.
var (
	// ErrTruncated is returned when a payload ends mid-field.
	ErrTruncated = errors.New("p2p: truncated message")
	// ErrUnknownKind is returned for unrecognized discriminators.
	ErrUnknownKind = errors.New("p2p: unknown message kind")
	// ErrNonFinite is returned for a NaN or infinite confidence,
	// distance, or quantization scale or offset: no honest peer sends
	// one, and one admitted would poison the store (a NaN entry cannot
	// be exported).
	ErrNonFinite = errors.New("p2p: non-finite float")
)

// MaxVectorDim bounds decoded vector sizes as a hostile-input guard.
const MaxVectorDim = 4096

// MaxLabelLen bounds decoded label sizes.
const MaxLabelLen = 256

// Encode serializes m into a fresh buffer. It is a thin wrapper over
// AppendEncode; hot paths pass a pooled buffer to AppendEncode instead.
func Encode(m Message) ([]byte, error) {
	return AppendEncode(nil, m)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func appendFloat(b []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(f))
}

// readFloat parses a float64 that must be finite.
func readFloat(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, ErrTruncated
	}
	f := math.Float64frombits(binary.BigEndian.Uint64(b))
	if !finite(f) {
		return 0, nil, ErrNonFinite
	}
	return f, b[8:], nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

func expectEmpty(b []byte) error {
	if len(b) != 0 {
		return fmt.Errorf("p2p: %d trailing bytes", len(b))
	}
	return nil
}
