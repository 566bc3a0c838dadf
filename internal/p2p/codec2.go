package p2p

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"approxcache/internal/feature"
)

// The wire codec: one compact framing for bandwidth-constrained peer
// links. A frame is
//
//	0xF2 | kind byte | payload
//
// where payload fields use varint lengths and counters, and feature
// vectors travel as per-message int8 affine-quantized codes:
//
//	uvarint dim | float32 scale | float32 offset | dim × int8 code
//
// — 1 byte per dimension plus a 9-byte header instead of 8 bytes per
// dimension. The receiver dequantizes (feature.DequantizeInto) before
// voting, so the homogenized kNN semantics are unchanged up to the
// quantization step (≤ scale/2 per component). Scalars that must
// round-trip exactly (confidences, distances) stay full float64.
//
// There is one dialect and no negotiation: a frame that does not open
// with the marker is rejected with ErrWireVersion and nothing else.

// wireMarker opens every frame.
const wireMarker byte = 0xF2

// ErrWireVersion is returned for a frame that does not open with the
// wire marker: whatever the sender speaks, it is not this protocol.
var ErrWireVersion = errors.New("p2p: unsupported wire version")

// qcodePool recycles int8 scratch for encode-side quantization.
var qcodePool = sync.Pool{
	New: func() any { s := make([]int8, 0, 512); return &s },
}

// appendQuantVec appends v in quantized form.
func appendQuantVec(b []byte, v feature.Vector) ([]byte, error) {
	if len(v) > MaxVectorDim {
		return nil, fmt.Errorf("p2p: vector dim %d exceeds %d", len(v), MaxVectorDim)
	}
	b = binary.AppendUvarint(b, uint64(len(v)))
	if len(v) == 0 {
		return b, nil
	}
	sp := qcodePool.Get().(*[]int8)
	codes := *sp
	if cap(codes) < len(v) {
		codes = make([]int8, len(v))
	}
	codes = codes[:len(v)]
	q := feature.QuantizeInto(v, codes)
	b = binary.BigEndian.AppendUint32(b, math.Float32bits(narrowFloat32(q.Scale)))
	b = binary.BigEndian.AppendUint32(b, math.Float32bits(narrowFloat32(q.Offset)))
	for _, c := range codes {
		b = append(b, byte(c))
	}
	*sp = codes[:0]
	qcodePool.Put(sp)
	return b, nil
}

// narrowFloat32 is float32(x) saturating at ±MaxFloat32. A decoded
// vector's components reach |offset| + 128·|scale|, past float32's range
// when the frame's scale or offset is near it; saturating re-encodes
// such a vector with a finite scale and offset, which Decode accepts,
// where a plain conversion overflows to an infinity Decode refuses.
func narrowFloat32(x float64) float32 {
	return float32(max(-math.MaxFloat32, min(x, math.MaxFloat32)))
}

// readQuantVec parses a quantized vector, dequantizing into a fresh
// float64 vector. A finite float32 scale and offset keep every
// dequantized component finite.
func readQuantVec(b []byte) (feature.Vector, []byte, error) {
	n64, b, err := readUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	n := int(n64)
	if n64 > MaxVectorDim {
		return nil, nil, fmt.Errorf("p2p: vector dim %d exceeds %d", n64, MaxVectorDim)
	}
	if n == 0 {
		return feature.Vector{}, b, nil
	}
	if len(b) < 8+n {
		return nil, nil, ErrTruncated
	}
	scale := float64(math.Float32frombits(binary.BigEndian.Uint32(b)))
	offset := float64(math.Float32frombits(binary.BigEndian.Uint32(b[4:])))
	if !finite(scale) || !finite(offset) {
		return nil, nil, ErrNonFinite
	}
	v := make(feature.Vector, n)
	feature.DequantizeInto(v, b[8:8+n], scale, offset)
	return v, b[8+n:], nil
}

// readUvarint parses a varint with a typed truncation error.
func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, ErrTruncated
	}
	return v, b[n:], nil
}

func appendString(b []byte, s string) ([]byte, error) {
	if len(s) > MaxLabelLen {
		return nil, fmt.Errorf("p2p: string length %d exceeds %d", len(s), MaxLabelLen)
	}
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...), nil
}

func readString(b []byte) (string, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if n > MaxLabelLen {
		return "", nil, fmt.Errorf("p2p: string length %d exceeds %d", n, MaxLabelLen)
	}
	if uint64(len(b)) < n {
		return "", nil, ErrTruncated
	}
	return string(b[:n]), b[n:], nil
}

// appendGossipBody appends one gossip item's payload.
func appendGossipBody(b []byte, g Gossip) ([]byte, error) {
	b, err := appendQuantVec(b, g.Vec)
	if err != nil {
		return nil, err
	}
	b, err = appendString(b, g.Label)
	if err != nil {
		return nil, err
	}
	b = appendFloat(b, g.Confidence)
	b = binary.AppendUvarint(b, uint64(g.SavedCost))
	return b, nil
}

func readGossipBody(b []byte) (Gossip, []byte, error) {
	var g Gossip
	var err error
	g.Vec, b, err = readQuantVec(b)
	if err != nil {
		return Gossip{}, nil, err
	}
	g.Label, b, err = readString(b)
	if err != nil {
		return Gossip{}, nil, err
	}
	g.Confidence, b, err = readFloat(b)
	if err != nil {
		return Gossip{}, nil, err
	}
	cost, b, err := readUvarint(b)
	if err != nil {
		return Gossip{}, nil, err
	}
	g.SavedCost = time.Duration(cost)
	return g, b, nil
}

// AppendEncode appends m's wire encoding to buf and returns the
// extended buffer (which may have been reallocated, as with append).
func AppendEncode(b []byte, m Message) ([]byte, error) {
	b = append(b, wireMarker, byte(m.MsgKind()))
	var err error
	switch v := m.(type) {
	case Query:
		b = append(b, v.K)
		return appendQuantVec(b, v.Vec)
	case QueryResp:
		b = append(b, boolByte(v.Found))
		if b, err = appendString(b, v.Label); err != nil {
			return nil, err
		}
		b = appendFloat(b, v.Confidence)
		b = appendFloat(b, v.Distance)
		return b, nil
	case Gossip:
		return appendGossipBody(b, v)
	case Ack:
		return b, nil
	case Ping:
		return appendString(b, v.From)
	case Pong:
		if b, err = appendString(b, v.From); err != nil {
			return nil, err
		}
		return binary.AppendUvarint(b, uint64(v.Entries)), nil
	default:
		return nil, fmt.Errorf("p2p: cannot encode %T", m)
	}
}

// Decode parses a frame produced by AppendEncode.
func Decode(b []byte) (Message, error) {
	if len(b) == 0 {
		return nil, ErrTruncated
	}
	if b[0] != wireMarker {
		return nil, fmt.Errorf("%w: frame opens with 0x%02x", ErrWireVersion, b[0])
	}
	if len(b) < 2 {
		return nil, ErrTruncated
	}
	kind, rest := Kind(b[1]), b[2:]
	switch kind {
	case KindQuery:
		if len(rest) < 1 {
			return nil, ErrTruncated
		}
		k := rest[0]
		vec, rest, err := readQuantVec(rest[1:])
		if err != nil {
			return nil, err
		}
		if err := expectEmpty(rest); err != nil {
			return nil, err
		}
		return Query{Vec: vec, K: k}, nil
	case KindQueryResp:
		if len(rest) < 1 {
			return nil, ErrTruncated
		}
		found := rest[0] != 0
		label, rest, err := readString(rest[1:])
		if err != nil {
			return nil, err
		}
		conf, rest, err := readFloat(rest)
		if err != nil {
			return nil, err
		}
		dist, rest, err := readFloat(rest)
		if err != nil {
			return nil, err
		}
		if err := expectEmpty(rest); err != nil {
			return nil, err
		}
		return QueryResp{Found: found, Label: label, Confidence: conf, Distance: dist}, nil
	case KindGossip:
		g, rest, err := readGossipBody(rest)
		if err != nil {
			return nil, err
		}
		if err := expectEmpty(rest); err != nil {
			return nil, err
		}
		return g, nil
	case KindAck:
		if err := expectEmpty(rest); err != nil {
			return nil, err
		}
		return Ack{}, nil
	case KindPing:
		from, rest, err := readString(rest)
		if err != nil {
			return nil, err
		}
		if err := expectEmpty(rest); err != nil {
			return nil, err
		}
		return Ping{From: from}, nil
	case KindPong:
		from, rest, err := readString(rest)
		if err != nil {
			return nil, err
		}
		entries, rest, err := readUvarint(rest)
		if err != nil {
			return nil, err
		}
		if entries > math.MaxUint32 {
			return nil, fmt.Errorf("p2p: pong entries %d overflows uint32", entries)
		}
		if err := expectEmpty(rest); err != nil {
			return nil, err
		}
		return Pong{From: from, Entries: uint32(entries)}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, uint8(kind))
	}
}

// Wire-size estimators, for energy accounting.

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// quantVecWireSize returns the encoded size of a dim-vector.
func quantVecWireSize(dim int) int {
	if dim == 0 {
		return 1
	}
	return uvarintLen(uint64(dim)) + 8 + dim
}

// QueryWireSize returns the encoded size of a query for dim-dimensional
// vectors.
func QueryWireSize(dim int) int { return 2 + 1 + quantVecWireSize(dim) }

// GossipWireSize returns the typical encoded size of a standalone gossip
// message carrying a dim-dimensional vector and a label of labelLen
// bytes (assumes a small SavedCost varint).
func GossipWireSize(dim, labelLen int) int {
	return 2 + quantVecWireSize(dim) + uvarintLen(uint64(labelLen)) + labelLen + 8 + 5
}
