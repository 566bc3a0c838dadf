package p2p

import (
	"math/rand"
	"testing"
	"time"

	"approxcache/internal/feature"
)

func clusterVec(r *rand.Rand, center feature.Vector, spread float64) feature.Vector {
	v := center.Clone()
	for i := range v {
		v[i] += r.NormFloat64() * spread
	}
	return v
}

func TestBuildDigestValidation(t *testing.T) {
	if _, err := BuildDigest(nil, 0, 4); err == nil {
		t.Fatal("zero radius accepted")
	}
	if _, err := BuildDigest(nil, 0.1, 0); err == nil {
		t.Fatal("zero centroids accepted")
	}
	if _, err := BuildDigest(nil, 0.1, MaxDigestCentroids+1); err == nil {
		t.Fatal("too many centroids accepted")
	}
	d, err := BuildDigest(nil, 0.1, 4)
	if err != nil || len(d.Centroids) != 0 {
		t.Fatalf("empty digest = %+v, %v", d, err)
	}
}

func TestBuildDigestClusters(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	centerA := feature.Vector{1, 0, 0}
	centerB := feature.Vector{0, 1, 0}
	var vecs []feature.Vector
	for i := 0; i < 20; i++ {
		vecs = append(vecs, clusterVec(r, centerA, 0.02))
		vecs = append(vecs, clusterVec(r, centerB, 0.02))
	}
	vecs = append(vecs, nil) // skipped
	d, err := BuildDigest(vecs, 0.25, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Centroids) != 2 {
		t.Fatalf("centroids = %d, want 2", len(d.Centroids))
	}
	// Each true center is near one centroid.
	for _, center := range []feature.Vector{centerA, centerB} {
		if !d.MayCover(center, 0.1, 0) {
			t.Fatalf("center %v not covered by %v", center, d.Centroids)
		}
	}
	// A far point is not covered.
	if d.MayCover(feature.Vector{-1, -1, 0}, 0.25, 0.25) {
		t.Fatal("far point covered")
	}
}

func TestBuildDigestCapsOutliers(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var vecs []feature.Vector
	for i := 0; i < 40; i++ {
		// Every vector far from every other: one cluster each.
		v := make(feature.Vector, 8)
		for d := range v {
			v[d] = r.Float64() * 100
		}
		vecs = append(vecs, v)
	}
	d, err := BuildDigest(vecs, 0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Centroids) != 4 {
		t.Fatalf("centroids = %d, want capped 4", len(d.Centroids))
	}
}

func TestDigestWireRoundTrip(t *testing.T) {
	in := DigestDeltaResp{Epoch: 3 << 32, Full: true, Added: []DigestCentroid{
		{ID: 1, Vec: feature.Vector{1, 2, 3}},
		{ID: 2, Vec: feature.Vector{-0.5, 0.25, 0.125}},
	}}
	b, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := mustDecode(t, b).(DigestDeltaResp)
	if !ok || !out.Full || out.Epoch != in.Epoch || len(out.Added) != 2 {
		t.Fatalf("out = %+v", out)
	}
	var st peerDigestState
	d, err := st.apply(out)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range in.Added {
		vecsClose(t, d.Centroids[i], c.Vec, quantTol(-0.5, 3))
	}
	// Request round trip.
	rb, err := Encode(DigestDeltaReq{Since: in.Epoch})
	if err != nil {
		t.Fatal(err)
	}
	if req, ok := mustDecode(t, rb).(DigestDeltaReq); !ok || req.Since != in.Epoch {
		t.Fatalf("digest req round trip = %+v", req)
	}
	// Truncations rejected.
	for cut := 1; cut < len(b); cut++ {
		if _, err := Decode(b[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func mustDecode(t *testing.T, b []byte) Message {
	t.Helper()
	m, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestServiceHandleDigestReq(t *testing.T) {
	svc := newService(t)
	if _, err := svc.store.Insert(feature.Vector{1, 0}, "cat", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.store.Insert(feature.Vector{1, 0.01}, "cat", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.store.Insert(feature.Vector{-1, 0}, "dog", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// A requester that never synced gets the full digest.
	resp, err := svc.HandleDigestDelta(DigestDeltaReq{})
	if err != nil {
		t.Fatal(err)
	}
	// Two tight groups → two centroids.
	if !resp.Full || len(resp.Added) != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	// Raw dispatch path works too.
	req, err := Encode(DigestDeltaReq{})
	if err != nil {
		t.Fatal(err)
	}
	respB, err := svc.HandleRaw("x", req)
	if err != nil {
		t.Fatal(err)
	}
	if raw, ok := mustDecode(t, respB).(DigestDeltaResp); !ok || !raw.Full || len(raw.Added) != 2 {
		t.Fatalf("raw digest dispatch = %+v", raw)
	}
}

// tapTransport hands every request straight to one service and keeps
// the decoded replies.
type tapTransport struct {
	svc     *Service
	replies []Message
}

func (t *tapTransport) Call(_ string, req []byte) ([]byte, time.Duration, error) {
	resp, err := t.svc.HandleRaw("self", req)
	if err != nil {
		return nil, time.Millisecond, err
	}
	m, err := Decode(resp)
	t.replies = append(t.replies, m)
	return resp, time.Millisecond, err
}

func (t *tapTransport) Send(peer string, payload []byte) (time.Duration, error) {
	_, rtt, err := t.Call(peer, payload)
	return rtt, err
}

// TestFetchDigestUnprobedUsesDelta: a client that never pinged its peer
// refreshes digests by epoch delta — a full snapshot first, then only
// what changed.
func TestFetchDigestUnprobedUsesDelta(t *testing.T) {
	tap := &tapTransport{svc: newService(t)}
	cl, err := NewClient(DefaultClientConfig(), tap)
	if err != nil {
		t.Fatal(err)
	}
	st := tap.svc.store
	if _, err := st.Insert(feature.Vector{1, 0}, "cat", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	fetch := func(wantCentroids int) DigestDeltaResp {
		t.Helper()
		d, _, err := cl.FetchDigest("node-a")
		if err != nil || len(d.Centroids) != wantCentroids {
			t.Fatalf("fetch %d = %+v, %v", len(tap.replies), d, err)
		}
		resp, ok := tap.replies[len(tap.replies)-1].(DigestDeltaResp)
		if !ok {
			t.Fatalf("fetch %d answered with %v", len(tap.replies), tap.replies[len(tap.replies)-1].MsgKind())
		}
		return resp
	}
	if first := fetch(1); !first.Full || len(first.Added) != 1 {
		t.Fatalf("first reply = %+v, want a full snapshot", first)
	}
	if same := fetch(1); same.Full || len(same.Added)+len(same.Removed) != 0 {
		t.Fatalf("unchanged reply = %+v, want an empty delta", same)
	}
	if _, err := st.Insert(feature.Vector{-1, 0}, "dog", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delta := fetch(2); delta.Full || len(delta.Added) != 1 || len(delta.Removed) != 0 {
		t.Fatalf("changed reply = %+v, want one added centroid", delta)
	}
}

func TestClientDigestPrefilter(t *testing.T) {
	cl, services, _ := newSimCluster(t, 2)
	// peer-a only knows about the region near (1,0); peer-b near (0,1).
	if _, err := services[0].store.Insert(feature.Vector{1, 0}, "cat", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := services[1].store.Insert(feature.Vector{0, 1}, "dog", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, peer := range cl.Peers() {
		if _, _, err := cl.FetchDigest(peer); err != nil {
			t.Fatal(err)
		}
	}
	// Query near (0,1): peer-a's digest rules it out, so only one
	// query goes out, and it still hits.
	hit, _, found, err := cl.Query(feature.Vector{0, 1.01})
	if err != nil {
		t.Fatal(err)
	}
	if !found || hit.Peer != "peer-b" {
		t.Fatalf("hit = %+v found=%v", hit, found)
	}
	if cl.SkippedQueries() != 1 {
		t.Fatalf("skipped = %d, want 1", cl.SkippedQueries())
	}
}

func TestClientQueryWithoutDigestsUnchanged(t *testing.T) {
	cl, services, _ := newSimCluster(t, 2)
	if _, err := services[1].store.Insert(feature.Vector{0, 1}, "dog", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, _, found, err := cl.Query(feature.Vector{0, 1}); err != nil || !found {
		t.Fatalf("found=%v err=%v", found, err)
	}
	if cl.SkippedQueries() != 0 {
		t.Fatal("queries skipped without digests")
	}
}
