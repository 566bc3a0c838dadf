package p2p

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/simclock"
	"approxcache/internal/simnet"
)

// quantTol is the worst-case per-element reconstruction error for a
// vector spanning [lo, hi]: half a quantization step plus float32
// header rounding slack.
func quantTol(lo, hi float64) float64 {
	return (hi-lo)/(2*feature.QuantRange)/2 + 1e-4
}

func vecsClose(t *testing.T, got, want feature.Vector, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("dim %d != %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("elem %d: got %v want %v (tol %v)", i, got[i], want[i], tol)
		}
	}
}

// allKinds is one specimen of every message kind.
func allKinds() []Message {
	return []Message{
		Query{Vec: feature.Vector{0.1, -0.4, 2.5}, K: 4},
		QueryResp{Found: true, Label: "class-1", Confidence: 0.875, Distance: 0.125},
		QueryResp{},
		Gossip{Vec: feature.Vector{-1, 1}, Label: "g", Confidence: 1, SavedCost: 33 * time.Millisecond},
		Ack{},
		Ping{From: "node-a"},
		Pong{From: "node-b", Entries: 12345},
		DigestDeltaReq{Since: 1<<40 | 7},
		DigestDeltaResp{
			Epoch:   1<<40 | 9,
			Removed: []uint64{3, 17},
			Added:   []DigestCentroid{{ID: 21, Vec: feature.Vector{0.5, -0.5}}},
		},
		DigestDeltaResp{Epoch: 2 << 32, Full: true,
			Added: []DigestCentroid{{ID: 1, Vec: feature.Vector{2, 2}}}},
		GossipBatch{Items: []Gossip{
			{Vec: feature.Vector{1, 2}, Label: "a", Confidence: 0.5, SavedCost: time.Second},
			{Vec: feature.Vector{3, 4}, Label: "b", Confidence: 0.75},
		}},
	}
}

func TestV2RoundTripAllKinds(t *testing.T) {
	for _, m := range allKinds() {
		b, err := AppendEncode(nil, m)
		if err != nil {
			t.Fatalf("%v: %v", m.MsgKind(), err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("%v: decode: %v", m.MsgKind(), err)
		}
		if got.MsgKind() != m.MsgKind() {
			t.Fatalf("kind %v became %v", m.MsgKind(), got.MsgKind())
		}
		switch want := m.(type) {
		case Query:
			g := got.(Query)
			if g.K != want.K {
				t.Fatalf("K %d != %d", g.K, want.K)
			}
			vecsClose(t, g.Vec, want.Vec, quantTol(-0.4, 2.5))
		case QueryResp:
			// Non-vector fields must round-trip exactly.
			if got.(QueryResp) != want {
				t.Fatalf("QueryResp %+v != %+v", got, want)
			}
		case Gossip:
			g := got.(Gossip)
			if g.Label != want.Label || g.Confidence != want.Confidence || g.SavedCost != want.SavedCost {
				t.Fatalf("Gossip %+v != %+v", g, want)
			}
			vecsClose(t, g.Vec, want.Vec, quantTol(-1, 1))
		case Ping:
			if got.(Ping) != want {
				t.Fatalf("Ping %+v != %+v", got, want)
			}
		case Pong:
			if got.(Pong) != want {
				t.Fatalf("Pong %+v != %+v", got, want)
			}
		case DigestDeltaReq:
			if got.(DigestDeltaReq) != want {
				t.Fatalf("DigestDeltaReq %+v != %+v", got, want)
			}
		case DigestDeltaResp:
			g := got.(DigestDeltaResp)
			if g.Epoch != want.Epoch || g.Full != want.Full ||
				len(g.Removed) != len(want.Removed) || len(g.Added) != len(want.Added) {
				t.Fatalf("DigestDeltaResp %+v != %+v", g, want)
			}
			for i := range want.Removed {
				if g.Removed[i] != want.Removed[i] {
					t.Fatalf("Removed[%d] = %d", i, g.Removed[i])
				}
			}
			for i := range want.Added {
				if g.Added[i].ID != want.Added[i].ID {
					t.Fatalf("Added[%d].ID = %d", i, g.Added[i].ID)
				}
				vecsClose(t, g.Added[i].Vec, want.Added[i].Vec, quantTol(-2, 2))
			}
		case GossipBatch:
			g := got.(GossipBatch)
			if len(g.Items) != len(want.Items) {
				t.Fatalf("batch %d items", len(g.Items))
			}
			for i := range want.Items {
				if g.Items[i].Label != want.Items[i].Label {
					t.Fatalf("item %d label %q", i, g.Items[i].Label)
				}
			}
		}
	}
}

func TestV2NegativeSavedCostRoundTrips(t *testing.T) {
	m := Gossip{Vec: feature.Vector{1}, Label: "x", Confidence: 1, SavedCost: -5 * time.Millisecond}
	b, err := AppendEncode(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if sc := got.(Gossip).SavedCost; sc != m.SavedCost {
		t.Fatalf("SavedCost %v != %v", sc, m.SavedCost)
	}
}

func TestV2TruncatedFrames(t *testing.T) {
	for _, m := range allKinds() {
		full, err := AppendEncode(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(full); cut++ {
			if _, err := Decode(full[:cut]); err == nil {
				// A strict prefix must never decode cleanly... except a
				// zero-length cut of nothing, which still errors.
				t.Fatalf("%v truncated to %d/%d bytes decoded", m.MsgKind(), cut, len(full))
			}
		}
	}
}

func TestV2CorruptFrames(t *testing.T) {
	if _, err := Decode([]byte{wireMarker}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("bare marker: %v", err)
	}
	if _, err := Decode([]byte{wireMarker, 0xEE, 0x01}); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("unknown kind: %v", err)
	}
	// Oversized vector dim must be rejected, not allocated.
	b := []byte{wireMarker, byte(KindQuery), 4, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := Decode(b); err == nil {
		t.Fatal("oversized dim accepted")
	}
	// Trailing garbage after a valid body must be rejected.
	full, err := AppendEncode(nil, Ack{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(full, 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestV2DeltaEntriesBounded(t *testing.T) {
	// A delta response claiming an absurd entry count must fail fast.
	b := []byte{wireMarker, byte(KindDigestDeltaResp)}
	b = append(b, 1)                                  // epoch
	b = append(b, 0)                                  // full=false
	b = append(b, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F) // removed count
	if _, err := Decode(b); err == nil {
		t.Fatal("unbounded delta accepted")
	}
}

func TestAppendEncodeMatchesEncode(t *testing.T) {
	prefix := []byte("prefix")
	for _, m := range allKinds() {
		enc, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		app, err := AppendEncode(append([]byte(nil), prefix...), m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(app, prefix) {
			t.Fatalf("%v: prefix clobbered", m.MsgKind())
		}
		if !bytes.Equal(app[len(prefix):], enc) {
			t.Fatalf("%v: AppendEncode differs from Encode", m.MsgKind())
		}
	}
}

func TestV2WireSizeEstimators(t *testing.T) {
	for _, dim := range []int{0, 1, 16, 80, 300} {
		vec := make(feature.Vector, dim)
		for i := range vec {
			vec[i] = float64(i) * 0.01
		}
		q, err := AppendEncode(nil, Query{Vec: vec, K: 4})
		if err != nil {
			t.Fatal(err)
		}
		if got := QueryWireSize(dim); got != len(q) {
			t.Fatalf("QueryWireSize(%d) = %d, actual %d", dim, got, len(q))
		}
		label := "some-label"
		g, err := AppendEncode(nil, Gossip{Vec: vec, Label: label, Confidence: 0.5, SavedCost: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if got := GossipWireSize(dim, len(label)); got < len(g) {
			t.Fatalf("GossipWireSize(%d) = %d underestimates actual %d", dim, got, len(g))
		}
	}
}

// TestV2QuerySmallerThanV1: a query frame is at least 4× smaller than
// the 8 B/dim its vector costs as raw float64s (what wire v1 sent).
func TestV2QuerySmallerThanV1(t *testing.T) {
	vec := make(feature.Vector, 80)
	for i := range vec {
		vec[i] = float64(i)
	}
	b, err := Encode(Query{Vec: vec, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if raw := 8 * len(vec); len(b)*4 > raw {
		t.Fatalf("query frame %dB not >= 4x smaller than %dB of float64s", len(b), raw)
	}
}

// TestGoldenFrames pins the encoding byte for byte against frames
// captured from the compact codec before it became the only one: the
// wire format is a contract with deployed peers, and deleting the other
// dialect must not have moved a byte of this one.
func TestGoldenFrames(t *testing.T) {
	cases := []struct {
		msg  Message
		want []byte
	}{
		{Query{Vec: feature.Vector{0.1, -0.4, 2.5}, K: 4},
			[]byte{0xf2, 0x01, 0x04, 0x03, 0x3c, 0x3b, 0x0f, 0xb9, 0x3f, 0x86, 0x66, 0x66, 0xad, 0x81, 0x7f}},
		{Gossip{Vec: feature.Vector{-1, 1}, Label: "g", Confidence: 1, SavedCost: 33 * time.Millisecond},
			[]byte{0xf2, 0x03, 0x02, 0x3c, 0x01, 0x02, 0x04, 0x00, 0x00, 0x00, 0x00, 0x81, 0x7f, 0x01, 0x67,
				0x3f, 0xf0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x94, 0xde, 0x0f}},
		{GossipBatch{Items: []Gossip{
			{Vec: feature.Vector{1, 2}, Label: "a", Confidence: 0.5, SavedCost: time.Second},
			{Vec: feature.Vector{3, 4}, Label: "b", Confidence: 0.75},
		}},
			[]byte{0xf2, 0x0b, 0x02,
				0x02, 0x3b, 0x81, 0x02, 0x04, 0x3f, 0xc0, 0x00, 0x00, 0x81, 0x7f, 0x01, 0x61,
				0x3f, 0xe0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x94, 0xeb, 0xdc, 0x03,
				0x02, 0x3b, 0x81, 0x02, 0x04, 0x40, 0x60, 0x00, 0x00, 0x81, 0x7f, 0x01, 0x62,
				0x3f, 0xe8, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}},
		{DigestDeltaResp{
			Epoch:   1<<40 | 9,
			Removed: []uint64{3, 17},
			Added:   []DigestCentroid{{ID: 21, Vec: feature.Vector{0.5, -0.5}}},
		},
			[]byte{0xf2, 0x0a, 0x89, 0x80, 0x80, 0x80, 0x80, 0x20, 0x00, 0x02, 0x03, 0x11, 0x01, 0x15,
				0x02, 0x3b, 0x81, 0x02, 0x04, 0x00, 0x00, 0x00, 0x00, 0x7f, 0x81}},
	}
	for _, tc := range cases {
		got, err := Encode(tc.msg)
		if err != nil {
			t.Fatalf("%v: %v", tc.msg.MsgKind(), err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%v encodes as\n% x\nwant\n% x", tc.msg.MsgKind(), got, tc.want)
		}
	}
}

// foreignFrames are frames this protocol must reject unread: every kind
// of the deleted float64 dialect (kind byte first, fixed-width big-endian
// fields) as that codec wrote them, plus other first bytes.
var foreignFrames = []struct {
	name  string
	frame []byte
}{
	{"v1 query", []byte{0x01, 0x04, 0x00, 0x03, 0x3f, 0xf0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}},
	{"v1 query-resp", []byte{0x02, 0x01, 0x00, 0x07, 0x63, 0x6c, 0x61, 0x73, 0x73, 0x2d, 0x31,
		0x3f, 0xe0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x3f, 0xb9, 0x99, 0x99, 0x99, 0x99, 0x99, 0x9a}},
	{"v1 gossip", []byte{0x03, 0x00, 0x01, 0x3f, 0xe0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x78,
		0x3f, 0xf0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x3b, 0x9a, 0xca, 0x00}},
	{"v1 ack", []byte{0x04}},
	{"v1 ping", []byte{0x05, 0x00, 0x01, 0x61}},
	{"v1 pong", []byte{0x06, 0x00, 0x01, 0x62, 0x00, 0x00, 0x00, 0x07}},
	{"v1 digest-req", []byte{0x07}},
	{"v1 digest-resp", []byte{0x08, 0x02, 0x00, 0x02, 0x3f, 0xf0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x3f, 0xf0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}},
	{"zero byte", []byte{0x00}},
	{"marker minus 1", []byte{0xf1, 0x05, 0x01, 0x61}},
	{"marker plus 1", []byte{0xf3, 0x05, 0x01, 0x61}},
	{"0xff then frame", []byte{0xff, 0xf2, 0x04}},
}

// rejectsForeign asserts the one rejection rule on frame: Decode and a
// service both answer ErrWireVersion, which health books as a bad
// response, and the service counts no traffic for it.
func rejectsForeign(t *testing.T, svc *Service, frame []byte) {
	t.Helper()
	if _, err := Decode(frame); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("Decode(% x) = %v, want ErrWireVersion", frame, err)
	}
	resp, err := svc.HandleRaw("stranger", frame)
	if !errors.Is(err, ErrWireVersion) || resp != nil {
		t.Fatalf("HandleRaw(% x) = % x, %v, want ErrWireVersion", frame, resp, err)
	}
	if Classify(err) != ErrClassBadResponse {
		t.Fatalf("class = %v, want bad response", Classify(err))
	}
	if ws := svc.WireStats(); ws.RecvMsgs != 0 || ws.SentMsgs != 0 || len(ws.Kinds) != 0 {
		t.Fatalf("rejected frame was booked: %+v", ws)
	}
}

func TestForeignFramesRejected(t *testing.T) {
	for _, ff := range foreignFrames {
		ff := ff
		t.Run(ff.name, func(t *testing.T) { rejectsForeign(t, newService(t), ff.frame) })
	}
}

// TestQuantizedVoteDifferential bounds the label disagreement between a
// peer's answer to the quantized query that crossed the wire and its
// answer to the exact float64 vector: compressing the query must not
// flip votes.
func TestQuantizedVoteDifferential(t *testing.T) {
	const dim, entries, queries = 16, 60, 300
	rng := rand.New(rand.NewSource(5))
	centers := make([]feature.Vector, 4)
	for i := range centers {
		c := make(feature.Vector, dim)
		for d := range c {
			c[d] = rng.NormFloat64()
		}
		c.Normalize()
		centers[i] = c
	}
	perturbed := func(r *rand.Rand, i int) feature.Vector {
		v := centers[i].Clone()
		for d := range v {
			v[d] += r.NormFloat64() * 0.02
		}
		v.Normalize()
		return v
	}
	net, err := simnet.New(simnet.LinkProfile{Latency: time.Millisecond}, 21)
	if err != nil {
		t.Fatal(err)
	}
	st := newStoreDim(t, dim, 4*entries)
	fill := rand.New(rand.NewSource(99))
	for j := 0; j < entries; j++ {
		i := fill.Intn(len(centers))
		if _, err := st.Insert(perturbed(fill, i), diffLabel(i), 0.9, "dnn", time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	svc, err := NewService(DefaultServiceConfig("peer-a"), st)
	if err != nil {
		t.Fatal(err)
	}
	if err := RegisterService(net, svc); err != nil {
		t.Fatal(err)
	}
	tr, err := NewSimnetTransport("self", net)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(DefaultClientConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetPeers([]string{"peer-a"})
	disagree, found := 0, 0
	for q := 0; q < queries; q++ {
		vec := perturbed(rng, rng.Intn(len(centers)))
		exact, err := svc.HandleQuery(Query{Vec: vec, K: queryK})
		if err != nil {
			t.Fatal(err)
		}
		wire, err := cl.QueryFrame(vec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Found {
			found++
		}
		if exact.Found != wire.Found || (exact.Found && exact.Label != wire.Hit.Label) {
			disagree++
		}
	}
	if found == 0 {
		t.Fatal("no query was answered; workload is broken")
	}
	if max := queries / 50; disagree > max { // 2%
		t.Fatalf("quantized answers disagreed on %d/%d queries (budget %d)", disagree, queries, max)
	}
}

func diffLabel(i int) string { return "class-" + string(rune('a'+i)) }

func newStoreDim(t *testing.T, dim, capacity int) *cachestore.Store {
	t.Helper()
	idx, err := lsh.NewExact(dim)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cachestore.New(cachestore.Config{Capacity: capacity}, idx,
		simclock.NewVirtual(time.Unix(0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}
