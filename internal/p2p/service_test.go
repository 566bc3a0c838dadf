package p2p

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/simclock"
)

func newStore(t testing.TB, capacity int) *cachestore.Store {
	t.Helper()
	idx, err := lsh.NewExact(2)
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

func newService(t testing.TB) *Service {
	t.Helper()
	svc, err := NewService(DefaultServiceConfig("node-a"), newStore(t, 16))
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestServiceConfigValidate(t *testing.T) {
	if err := DefaultServiceConfig("x").Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (ServiceConfig{}).Validate(); err == nil {
		t.Error("a service without a name accepted")
	}
}

func TestNewServiceValidation(t *testing.T) {
	if _, err := NewService(ServiceConfig{}, newStore(t, 4)); err == nil {
		t.Fatal("bad config accepted")
	}
	if _, err := NewService(DefaultServiceConfig("a"), nil); err == nil {
		t.Fatal("nil store accepted")
	}
}

func TestHandleQueryHitAndMiss(t *testing.T) {
	svc := newService(t)
	if _, err := svc.store.Insert(feature.Vector{1, 0}, "cat", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Near query: hit.
	resp, err := svc.HandleQuery(Query{Vec: feature.Vector{1, 0.01}, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Found || resp.Label != "cat" {
		t.Fatalf("resp = %+v", resp)
	}
	// Far query: miss.
	resp, err = svc.HandleQuery(Query{Vec: feature.Vector{-1, 0}, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Found {
		t.Fatalf("far query hit: %+v", resp)
	}
	// Empty vector: error.
	if _, err := svc.HandleQuery(Query{}); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestHandleQueryKClamped(t *testing.T) {
	svc := newService(t)
	if _, err := svc.store.Insert(feature.Vector{1, 0}, "cat", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// K=0 and K=200 both fall back to the service's vote K.
	for _, k := range []uint8{0, 200} {
		resp, err := svc.HandleQuery(Query{Vec: feature.Vector{1, 0}, K: k})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Found {
			t.Fatalf("K=%d query missed", k)
		}
	}
}

func TestHandleGossipAdmission(t *testing.T) {
	svc := newService(t)
	// Confident gossip is admitted.
	if err := svc.HandleGossip(Gossip{
		Vec: feature.Vector{1, 0}, Label: "cat", Confidence: 0.9, SavedCost: time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if svc.store.Len() != 1 {
		t.Fatalf("store len = %d", svc.store.Len())
	}
	// Low-confidence gossip is silently dropped.
	if err := svc.HandleGossip(Gossip{
		Vec: feature.Vector{0, 1}, Label: "dog", Confidence: 0.1, SavedCost: time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if svc.store.Len() != 1 {
		t.Fatal("low-confidence gossip admitted")
	}
	// Near-duplicate same-label gossip is suppressed.
	if err := svc.HandleGossip(Gossip{
		Vec: feature.Vector{1, 0.001}, Label: "cat", Confidence: 0.9, SavedCost: time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if svc.store.Len() != 1 {
		t.Fatal("near-duplicate gossip admitted")
	}
	// Same position, different label: admitted (conflicting evidence
	// is kept so the vote can homogenize it).
	if err := svc.HandleGossip(Gossip{
		Vec: feature.Vector{1, 0.001}, Label: "dog", Confidence: 0.9, SavedCost: time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if svc.store.Len() != 2 {
		t.Fatal("conflicting-label gossip suppressed")
	}
	// Validation errors.
	if err := svc.HandleGossip(Gossip{Label: "x", Confidence: 1}); err == nil {
		t.Fatal("empty vector accepted")
	}
	if err := svc.HandleGossip(Gossip{Vec: feature.Vector{1, 0}, Confidence: 1}); err == nil {
		t.Fatal("empty label accepted")
	}
}

func TestHandlePing(t *testing.T) {
	svc := newService(t)
	if _, err := svc.store.Insert(feature.Vector{1, 0}, "cat", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	pong := svc.HandlePing(Ping{From: "node-b"})
	if pong.From != "node-a" || pong.Entries != 1 {
		t.Fatalf("pong = %+v", pong)
	}
}

func TestHandleRawDispatch(t *testing.T) {
	svc := newService(t)
	if _, err := svc.store.Insert(feature.Vector{1, 0}, "cat", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Query via raw path.
	req, err := Encode(Query{Vec: feature.Vector{1, 0}, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	respB, err := svc.HandleRaw("node-b", req)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := Decode(respB)
	if err != nil {
		t.Fatal(err)
	}
	if resp, ok := msg.(QueryResp); !ok || !resp.Found {
		t.Fatalf("raw query resp = %+v", msg)
	}
	// Gossip via raw path gets an Ack.
	g, err := Encode(Gossip{Vec: feature.Vector{0, 1}, Label: "dog", Confidence: 1})
	if err != nil {
		t.Fatal(err)
	}
	respB, err = svc.HandleRaw("node-b", g)
	if err != nil {
		t.Fatal(err)
	}
	if msg, err := Decode(respB); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(Ack); !ok {
		t.Fatalf("gossip resp = %+v", msg)
	}
	// Ping via raw path.
	p, err := Encode(Ping{From: "node-b"})
	if err != nil {
		t.Fatal(err)
	}
	respB, err = svc.HandleRaw("node-b", p)
	if err != nil {
		t.Fatal(err)
	}
	if msg, err := Decode(respB); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(Pong); !ok {
		t.Fatalf("ping resp = %+v", msg)
	}
	// Garbage payload errors.
	if _, err := svc.HandleRaw("node-b", []byte{0xFF}); err == nil {
		t.Fatal("garbage accepted")
	}
	// A response kind as a request errors.
	r, err := Encode(Ack{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.HandleRaw("node-b", r); err == nil {
		t.Fatal("ack-as-request accepted")
	}
}

func TestRadioEnergyModel(t *testing.T) {
	m := DefaultRadioEnergyModel()
	if m.MessageCost(0) != m.PerMessageMJ {
		t.Fatal("zero-byte message should cost the fixed overhead")
	}
	if m.MessageCost(1000) <= m.MessageCost(10) {
		t.Fatal("message cost should grow with size")
	}
	if m.RTTCost(100, 50) != m.MessageCost(100)+m.MessageCost(50) {
		t.Fatal("RTT cost should be the two message costs")
	}
}

// TestServiceRadiusLookupDifferential: a service that can tell its store
// the radius it filters by answers every query and admits every gossip
// exactly like one whose store hides the radius search (the fallback a
// wrapped store takes), and leaves an identical cache behind.
func TestServiceRadiusLookupDifferential(t *testing.T) {
	direct := newService(t)
	hiddenStore := newStore(t, 16)
	hidden, err := NewService(DefaultServiceConfig("node-b"), struct{ cachestore.Interface }{hiddenStore})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	point := func() feature.Vector {
		// A coarse lattice with jitter: near-duplicates, in-range and
		// out-of-range neighbours all occur.
		return feature.Vector{
			float64(rng.Intn(4))*0.2 + rng.NormFloat64()*0.03,
			float64(rng.Intn(4))*0.2 + rng.NormFloat64()*0.03,
		}
	}
	labels := []string{"cat", "dog", "owl"}
	found, dropped := 0, 0
	for i := 0; i < 400; i++ {
		if i%2 == 0 {
			g := Gossip{Vec: point(), Label: labels[rng.Intn(len(labels))], Confidence: 0.4 + 0.6*rng.Float64(), SavedCost: time.Millisecond}
			before := direct.store.Len() + direct.store.Evictions()
			if err := direct.HandleGossip(g); err != nil {
				t.Fatal(err)
			}
			if err := hidden.HandleGossip(g); err != nil {
				t.Fatal(err)
			}
			if direct.store.Len()+direct.store.Evictions() == before {
				dropped++
			}
			continue
		}
		q := Query{Vec: point(), K: uint8(rng.Intn(6))}
		a, err := direct.HandleQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := hidden.HandleQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("query %d: direct %+v, hidden %+v", i, a, b)
		}
		if a.Found {
			found++
		}
	}
	if found == 0 || dropped == 0 {
		t.Fatalf("workload too tame: %d answers found, %d gossips dropped", found, dropped)
	}
	a, b := direct.store.(*cachestore.Store).Snapshot(), hiddenStore.Snapshot()
	sort.Slice(a, func(i, j int) bool { return a[i].ID < a[j].ID })
	sort.Slice(b, func(i, j int) bool { return b[i].ID < b[j].ID })
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("caches diverged: %d vs %d entries", len(a), len(b))
	}
}

// TestNonFiniteFloatsRefusedAtDecode: a gossip frame with a NaN
// confidence, or with a NaN or infinite quantization scale or offset
// patched in, and a query response with a NaN confidence or infinite
// distance are refused at decode as a bad response. Admitted, any of
// them would leave a NaN in the store that Export cannot write.
func TestNonFiniteFloatsRefusedAtDecode(t *testing.T) {
	svc := newService(t)
	nan, err := Encode(Gossip{Vec: feature.Vector{1, 0}, Label: "cat", Confidence: math.NaN()})
	if err != nil {
		t.Fatal(err)
	}
	frames := [][]byte{nan}
	// marker, kind, dim 2, then the float32 scale and offset.
	for _, patch := range []struct {
		at int
		f  float32
	}{{3, float32(math.NaN())}, {3, float32(math.Inf(1))}, {7, float32(math.Inf(-1))}} {
		b, err := Encode(Gossip{Vec: feature.Vector{0, 1}, Label: "dog", Confidence: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint32(b[patch.at:], math.Float32bits(patch.f))
		frames = append(frames, b)
	}
	for i, b := range frames {
		if _, err := svc.HandleRaw("node-b", b); !errors.Is(err, ErrNonFinite) || Classify(err) != ErrClassBadResponse {
			t.Fatalf("frame %d: HandleRaw = %v (class %v), want ErrNonFinite as a bad response", i, err, Classify(err))
		}
	}
	for _, r := range []QueryResp{
		{Found: true, Label: "cat", Confidence: math.NaN(), Distance: 0.1},
		{Found: true, Label: "cat", Confidence: 0.9, Distance: math.Inf(1)},
	} {
		b, err := Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(b); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("Decode(%+v) = %v, want ErrNonFinite", r, err)
		}
	}
	if n := svc.store.Len(); n != 0 {
		t.Fatalf("refused frames left %d entries in the store", n)
	}
	ok, err := Encode(Gossip{Vec: feature.Vector{0, 1}, Label: "dog", Confidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.HandleRaw("node-b", ok); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := svc.store.Export(&snap); err != nil {
		t.Fatal(err)
	}
	if n, err := newStore(t, 16).Import(&snap); err != nil || n != 1 {
		t.Fatalf("Import = %d, %v; want the one admitted entry", n, err)
	}
}
