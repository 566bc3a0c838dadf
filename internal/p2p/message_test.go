package p2p

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"approxcache/internal/feature"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	b, err := Encode(m)
	if err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	out, err := Decode(b)
	if err != nil {
		t.Fatalf("decode %T: %v", m, err)
	}
	return out
}

func TestKindString(t *testing.T) {
	// WireStats.Kinds is keyed by these spellings.
	names := map[Kind]string{
		KindQuery:       "query",
		KindQueryResp:   "query-resp",
		KindGossip:      "gossip",
		KindAck:         "ack",
		KindPing:        "ping",
		KindPong:        "pong",
		KindGossipBatch: "gossip-batch",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatalf("unknown kind = %q", Kind(99).String())
	}
}

func TestQueryRoundTrip(t *testing.T) {
	in := Query{Vec: feature.Vector{0.25, -1.5, 3e-9}, K: 7}
	out, ok := roundTrip(t, in).(Query)
	if !ok {
		t.Fatal("wrong type")
	}
	if out.K != 7 {
		t.Fatalf("out = %+v", out)
	}
	vecsClose(t, out.Vec, in.Vec, quantTol(-1.5, 0.25))
}

func TestQueryRespRoundTrip(t *testing.T) {
	in := QueryResp{Found: true, Label: "class-3", Confidence: 0.875, Distance: 0.0625}
	out, ok := roundTrip(t, in).(QueryResp)
	if !ok {
		t.Fatal("wrong type")
	}
	if out != in {
		t.Fatalf("out = %+v, want %+v", out, in)
	}
	// Not-found response with empty label.
	miss := QueryResp{}
	out2, ok := roundTrip(t, miss).(QueryResp)
	if !ok || out2 != miss {
		t.Fatalf("miss round trip = %+v", out2)
	}
}

func TestGossipRoundTrip(t *testing.T) {
	in := Gossip{
		Vec:        feature.Vector{1, 2, 3, 4},
		Label:      "class-1",
		Confidence: 0.5,
		SavedCost:  120 * time.Millisecond,
	}
	out, ok := roundTrip(t, in).(Gossip)
	if !ok {
		t.Fatal("wrong type")
	}
	if out.Label != in.Label || out.Confidence != in.Confidence || out.SavedCost != in.SavedCost {
		t.Fatalf("out = %+v", out)
	}
}

func TestAckPingPongRoundTrip(t *testing.T) {
	if _, ok := roundTrip(t, Ack{}).(Ack); !ok {
		t.Fatal("ack round trip failed")
	}
	p, ok := roundTrip(t, Ping{From: "node-a"}).(Ping)
	if !ok || p.From != "node-a" {
		t.Fatalf("ping = %+v", p)
	}
	po, ok := roundTrip(t, Pong{From: "node-b", Entries: 42}).(Pong)
	if !ok || po.From != "node-b" || po.Entries != 42 {
		t.Fatalf("pong = %+v", po)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("nil payload: %v", err)
	}
	if _, err := Decode([]byte{200}); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("unmarked frame: %v", err)
	}
	if _, err := Decode([]byte{wireMarker, 200}); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("unknown kind: %v", err)
	}
	// Truncated query.
	b, err := Encode(Query{Vec: feature.Vector{1, 2}, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(b); cut++ {
		if _, err := Decode(b[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage.
	if _, err := Decode(append(b, 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestEncodeLimits(t *testing.T) {
	big := make(feature.Vector, MaxVectorDim+1)
	if _, err := Encode(Query{Vec: big, K: 1}); err == nil {
		t.Fatal("oversized vector accepted")
	}
	longLabel := string(make([]byte, MaxLabelLen+1))
	if _, err := Encode(QueryResp{Label: longLabel}); err == nil {
		t.Fatal("oversized label accepted")
	}
}

func TestDecodeRejectsOversizedDeclaredVector(t *testing.T) {
	// Declared dim beyond the cap must be rejected before allocation.
	b := []byte{wireMarker, byte(KindQuery), 1, 0xFF, 0xFF, 0x7F}
	if _, err := Decode(b); err == nil {
		t.Fatal("oversized declared dim accepted")
	}
}

type fakeMsg struct{}

func (fakeMsg) MsgKind() Kind { return 99 }

func TestEncodeUnknownType(t *testing.T) {
	if _, err := Encode(fakeMsg{}); err == nil {
		t.Fatal("unknown type accepted")
	}
}

// Property: all messages survive an encode/decode round trip — scalars
// and strings bit-exactly, vectors to within the quantization step.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vec := make(feature.Vector, r.Intn(64))
		for i := range vec {
			vec[i] = r.NormFloat64()
		}
		msgs := []Message{
			Query{Vec: vec, K: uint8(r.Intn(256))},
			QueryResp{
				Found:      r.Intn(2) == 0,
				Label:      labelFor(r),
				Confidence: r.Float64(),
				Distance:   math.Abs(r.NormFloat64()),
			},
			Gossip{
				Vec:        vec,
				Label:      labelFor(r),
				Confidence: r.Float64(),
				SavedCost:  time.Duration(r.Int63n(int64(time.Second))),
			},
			Ping{From: labelFor(r)},
			Pong{From: labelFor(r), Entries: r.Uint32()},
			Ack{},
		}
		for _, m := range msgs {
			b, err := Encode(m)
			if err != nil {
				return false
			}
			out, err := Decode(b)
			if err != nil {
				return false
			}
			switch in := m.(type) {
			case Query:
				o, ok := out.(Query)
				if !ok || o.K != in.K || !vecEqual(o.Vec, in.Vec) {
					return false
				}
			case QueryResp:
				if o, ok := out.(QueryResp); !ok || o != in {
					return false
				}
			case Gossip:
				o, ok := out.(Gossip)
				if !ok || o.Label != in.Label || o.Confidence != in.Confidence ||
					o.SavedCost != in.SavedCost || !vecEqual(o.Vec, in.Vec) {
					return false
				}
			case Ping:
				if o, ok := out.(Ping); !ok || o != in {
					return false
				}
			case Pong:
				if o, ok := out.(Pong); !ok || o != in {
					return false
				}
			case Ack:
				if _, ok := out.(Ack); !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Decode never panics on arbitrary bytes.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWireSizeHelpers(t *testing.T) {
	vec := make(feature.Vector, 80)
	b, err := Encode(Query{Vec: vec, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != QueryWireSize(80) {
		t.Fatalf("QueryWireSize = %d, actual %d", QueryWireSize(80), len(b))
	}
	g, err := Encode(Gossip{Vec: vec, Label: "class-12", Confidence: 1, SavedCost: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != GossipWireSize(80, len("class-12")) {
		t.Fatalf("GossipWireSize = %d, actual %d", GossipWireSize(80, 8), len(g))
	}
}

func labelFor(r *rand.Rand) string {
	const alphabet = "abcdefghij-0123456789"
	n := r.Intn(20)
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

// vecEqual reports whether got is want up to want's quantization step.
func vecEqual(got, want feature.Vector) bool {
	if len(got) != len(want) {
		return false
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range want {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > quantTol(lo, hi) {
			return false
		}
	}
	return true
}
