package approxcache_test

import (
	"bytes"
	"testing"
	"time"

	"approxcache"
	"approxcache/internal/feature"
	"approxcache/internal/p2p"
)

func testWorkload(t *testing.T, frames int) *approxcache.Workload {
	t.Helper()
	spec := approxcache.StationaryHeavyWorkload(frames, 3)
	w, err := approxcache.GenerateWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func testClassifier(t *testing.T, w *approxcache.Workload) approxcache.Classifier {
	t.Helper()
	clf, err := approxcache.NewSimulatedClassifier(approxcache.MobileNetV2, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	return clf
}

func newCache(t *testing.T, w *approxcache.Workload, opts approxcache.Options) *approxcache.Cache {
	t.Helper()
	clf := testClassifier(t, w)
	if opts.Clock == nil {
		opts.Clock = approxcache.NewVirtualClock()
	}
	c, err := approxcache.New(clf, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func replay(t *testing.T, c *approxcache.Cache, w *approxcache.Workload) {
	t.Helper()
	prev := time.Duration(0)
	for _, fr := range w.Frames {
		win := w.IMUWindow(prev, fr.Offset)
		prev = fr.Offset
		if _, err := c.ProcessWithTruth(fr.Image, win, approxcache.LabelOf(fr.Class)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := approxcache.New(nil, approxcache.Options{}); err == nil {
		t.Fatal("nil classifier accepted")
	}
	w := testWorkload(t, 10)
	if _, err := approxcache.New(testClassifier(t, w), approxcache.Options{Capacity: -1}); err == nil {
		t.Fatal("negative Capacity accepted")
	}
	if _, err := approxcache.NewSimulatedClassifier(approxcache.MobileNetV2, nil, 1); err == nil {
		t.Fatal("nil workload accepted")
	}
}

func TestDefaultsAndAccessors(t *testing.T) {
	w := testWorkload(t, 10)
	c := newCache(t, w, approxcache.Options{})
	if c.Len() != 0 || c.Evictions() != 0 {
		t.Fatal("fresh cache not empty")
	}
	if _, ok := c.LastResult(); ok {
		t.Fatal("fresh cache has a last result")
	}
}

// TestEndToEndApproxBeatsNoCache compares the cache with running the
// same classifier on every frame: far lower mean latency, at most 10
// points of accuracy lost.
func TestEndToEndApproxBeatsNoCache(t *testing.T) {
	w := testWorkload(t, 200)
	clf := testClassifier(t, w)
	var total time.Duration
	correct := 0
	for _, fr := range w.Frames {
		inf, err := clf.Infer(fr.Image)
		if err != nil {
			t.Fatal(err)
		}
		total += inf.Latency
		if inf.Label == approxcache.LabelOf(fr.Class) {
			correct++
		}
	}
	bm := total / time.Duration(len(w.Frames))
	baseAcc := float64(correct) / float64(len(w.Frames))

	apx := newCache(t, w, approxcache.Options{})
	replay(t, apx, w)
	am := apx.Stats().Latency().Mean()
	if am*2 >= bm {
		t.Fatalf("approx mean %v not ≪ no-cache mean %v", am, bm)
	}
	if apx.Stats().HitRate() < 0.5 {
		t.Fatalf("hit rate = %v", apx.Stats().HitRate())
	}
	if apx.Len() == 0 {
		t.Fatal("cache stayed empty")
	}
	if baseAcc-apx.Stats().Accuracy() > 0.1 {
		t.Fatalf("accuracy loss too large: %v vs %v", baseAcc, apx.Stats().Accuracy())
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	w := testWorkload(t, 20)
	clock := approxcache.NewVirtualClock()
	c := newCache(t, w, approxcache.Options{Clock: clock})
	start := clock.Now()
	replay(t, c, w)
	if !clock.Now().After(start) {
		t.Fatal("virtual clock did not advance")
	}
}

func TestCapacityAndEvictions(t *testing.T) {
	// A panning sweep changes scenes every few frames, producing
	// enough distinct insertions to pressure a 4-entry cache.
	spec := approxcache.StandardWorkloads(300, 3)[3]
	w, err := approxcache.GenerateWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := newCache(t, w, approxcache.Options{Capacity: 4})
	replay(t, c, w)
	if c.Len() > 4 {
		t.Fatalf("cache len %d exceeds capacity", c.Len())
	}
	if c.Evictions() == 0 {
		t.Fatal("tiny cache never evicted")
	}
}

func TestSimNetworkPeering(t *testing.T) {
	w := testWorkload(t, 60)
	net, err := approxcache.NewSimNetwork(7)
	if err != nil {
		t.Fatal(err)
	}
	clock := approxcache.NewVirtualClock()
	a := newCache(t, w, approxcache.Options{Clock: clock})
	b := newCache(t, w, approxcache.Options{Clock: clock})
	ca, err := a.JoinSimNetwork(net, "dev-a")
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.JoinSimNetwork(net, "dev-b")
	if err != nil {
		t.Fatal(err)
	}
	// Device A works through the trace before the mesh forms, so it has
	// no peer to gossip to and B's reuse must flow through live peer
	// queries rather than pre-warmed local entries. B then sees the
	// same scenes and should get peer hits without running its DNN on
	// some frames.
	replay(t, a, w)
	if err := approxcache.ConnectAll(map[string]*approxcache.PeerClient{"dev-a": ca, "dev-b": cb}); err != nil {
		t.Fatal(err)
	}
	if got := ca.Peers(); len(got) != 1 || got[0] != "dev-b" {
		t.Fatalf("dev-a peers = %v", got)
	}
	replay(t, b, w)
	counts := b.Stats().CountBySource()
	if counts[approxcache.SourcePeer] == 0 {
		t.Fatalf("no peer hits on device B: %v", counts)
	}
}

// TestFacadeMeshSpeaksCompactUnprobed: the public mesh path never
// pings, and its very first query is the compact frame all the same.
func TestFacadeMeshSpeaksCompactUnprobed(t *testing.T) {
	w := testWorkload(t, 10)
	net, err := approxcache.NewSimNetwork(7)
	if err != nil {
		t.Fatal(err)
	}
	clients := map[string]*approxcache.PeerClient{}
	for _, name := range []string{"dev-a", "dev-b"} {
		client, err := newCache(t, w, approxcache.Options{}).JoinSimNetwork(net, name)
		if err != nil {
			t.Fatal(err)
		}
		clients[name] = client
	}
	if err := approxcache.ConnectAll(clients); err != nil {
		t.Fatal(err)
	}
	vec := make(feature.Vector, 80)
	for i := range vec {
		vec[i] = float64(i) / 80
	}
	ca := clients["dev-a"]
	if _, err := ca.QueryFrame(vec, 0); err != nil {
		t.Fatal(err)
	}
	// marker, kind, K, dim varint, float32 scale and offset, 80 int8
	// codes — and the size the engine charges radio energy for.
	const compact = 92
	ws := ca.WireStats()
	if q := ws.Kinds["query"]; q.SentMsgs != 1 || q.SentBytes != compact {
		t.Fatalf("first query = %+v, want one %d-byte frame", q, compact)
	}
	if got := p2p.QueryWireSize(len(vec)); got != compact {
		t.Fatalf("QueryWireSize(%d) = %d, the frame is %d bytes", len(vec), got, compact)
	}
	if ws.SentMsgs != 1 {
		t.Fatalf("something besides the query was sent: %+v", ws.Kinds)
	}
}

func TestLateJoinerBecomesReachable(t *testing.T) {
	w := testWorkload(t, 30)
	net, err := approxcache.NewSimNetwork(7)
	if err != nil {
		t.Fatal(err)
	}
	clock := approxcache.NewVirtualClock()
	opts := approxcache.Options{Clock: clock}
	a := newCache(t, w, opts)
	b := newCache(t, w, opts)
	ca, err := a.JoinSimNetwork(net, "dev-a")
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.JoinSimNetwork(net, "dev-b")
	if err != nil {
		t.Fatal(err)
	}
	clients := map[string]*approxcache.PeerClient{"dev-a": ca, "dev-b": cb}
	if err := approxcache.ConnectAll(clients); err != nil {
		t.Fatal(err)
	}
	epoch := net.Epoch()

	// A third device joins after the mesh formed. Membership must be
	// observable via the epoch so callers know to re-wire.
	c := newCache(t, w, opts)
	cc, err := c.JoinSimNetwork(net, "dev-c")
	if err != nil {
		t.Fatal(err)
	}
	if net.Epoch() == epoch {
		t.Fatal("late join did not bump the mesh epoch")
	}
	for name, cl := range clients {
		for _, p := range cl.Peers() {
			if p == "dev-c" {
				t.Fatalf("%s saw dev-c before ConnectAll re-ran", name)
			}
		}
	}
	// Re-running ConnectAll is idempotent and wires the late joiner in.
	clients["dev-c"] = cc
	if err := approxcache.ConnectAll(clients); err != nil {
		t.Fatal(err)
	}
	for name, cl := range clients {
		if got := len(cl.Peers()); got != 2 {
			t.Fatalf("%s has %d peers after re-wire", name, got)
		}
	}
	// The late joiner is actually reachable, not just listed.
	pong, _, err := ca.Ping("dev-a", "dev-c")
	if err != nil {
		t.Fatal(err)
	}
	if pong.From != "dev-c" {
		t.Fatalf("pong from %q", pong.From)
	}
}

func TestTCPPeering(t *testing.T) {
	w := testWorkload(t, 40)
	clock := approxcache.NewVirtualClock()
	server := newCache(t, w, approxcache.Options{Clock: clock})
	srv, err := server.ServeTCP("server-node", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	// Warm the server cache by replaying the trace there.
	replay(t, server, w)

	client := newCache(t, w, approxcache.Options{Clock: clock})
	if _, err := client.DialPeers(srv.Addr()); err != nil {
		t.Fatal(err)
	}
	replay(t, client, w)
	counts := client.Stats().CountBySource()
	if counts[approxcache.SourcePeer] == 0 {
		t.Fatalf("no TCP peer hits: %v", counts)
	}
}

func TestSnapshotWarmStart(t *testing.T) {
	w := testWorkload(t, 150)
	warm := newCache(t, w, approxcache.Options{})
	replay(t, warm, w)
	if warm.Len() == 0 {
		t.Fatal("warm cache empty")
	}
	var buf bytes.Buffer
	if err := warm.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	cold := newCache(t, w, approxcache.Options{})
	n, err := cold.LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != warm.Len() {
		t.Fatalf("loaded %d, want %d", n, warm.Len())
	}
	// A warm-started cache resolves its very first frames from the
	// local cache instead of running the DNN cold.
	replay(t, cold, w)
	coldCounts := cold.Stats().CountBySource()
	freshCounts := func() map[approxcache.Source]int {
		fresh := newCache(t, w, approxcache.Options{})
		replay(t, fresh, w)
		return fresh.Stats().CountBySource()
	}()
	if coldCounts[approxcache.SourceDNN] > freshCounts[approxcache.SourceDNN] {
		t.Fatalf("warm start ran MORE inferences: %d vs %d",
			coldCounts[approxcache.SourceDNN], freshCounts[approxcache.SourceDNN])
	}
}
