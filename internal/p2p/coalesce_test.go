package p2p

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/simclock"
	"approxcache/internal/simnet"
)

// newCoalesceCluster builds a 2-peer cluster with a virtual clock and
// the compact comms features enabled per cfgMut.
func newCoalesceCluster(t *testing.T, cfgMut func(*ClientConfig)) (*Client, []*Service, *simclock.Virtual) {
	t.Helper()
	net, err := simnet.New(simnet.LinkProfile{Latency: 2 * time.Millisecond}, 9)
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewVirtual(time.Unix(0, 0))
	services := make([]*Service, 2)
	names := []string{"peer-a", "peer-b"}
	for i, name := range names {
		svc, err := NewService(DefaultServiceConfig(name), newStore(t, 32))
		if err != nil {
			t.Fatal(err)
		}
		if err := RegisterService(net, svc); err != nil {
			t.Fatal(err)
		}
		services[i] = svc
	}
	tr, err := NewSimnetTransport("self", net)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClientConfig()
	cfg.Clock = clock
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	cl, err := NewClient(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetPeers(names)
	return cl, services, clock
}

func TestCoalesceTTLCacheReplaysFree(t *testing.T) {
	cl, services, clock := newCoalesceCluster(t, func(c *ClientConfig) {
		c.CoalesceTTL = 150 * time.Millisecond
	})
	if _, err := services[0].Store().Insert(feature.Vector{1, 0}, "cat", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	vec := feature.Vector{1, 0.01}
	first, err := cl.QueryFrame(vec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Found || first.Queried == 0 || first.Cost == 0 {
		t.Fatalf("leader outcome = %+v", first)
	}
	// Replay within the TTL: same answer, zero network, zero cost.
	second, err := cl.QueryFrame(vec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Found || second.Hit.Label != "cat" {
		t.Fatalf("replay outcome = %+v", second)
	}
	if second.Queried != 0 || second.Cost != 0 {
		t.Fatalf("replay was not free: %+v", second)
	}
	ws := cl.WireStats()
	if ws.CoalescedCached != 1 {
		t.Fatalf("coalesced-cached = %d", ws.CoalescedCached)
	}
	sentBefore := ws.SentMsgs
	// Past the TTL the answer must be re-fetched.
	clock.Advance(200 * time.Millisecond)
	third, err := cl.QueryFrame(vec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if third.Queried == 0 {
		t.Fatal("expired answer still replayed")
	}
	if cl.WireStats().SentMsgs <= sentBefore {
		t.Fatal("no wire traffic after TTL expiry")
	}
}

func TestCoalesceConcurrentDuplicates(t *testing.T) {
	cl, services, _ := newCoalesceCluster(t, func(c *ClientConfig) {
		c.CoalesceTTL = time.Second
	})
	if _, err := services[0].Store().Insert(feature.Vector{1, 0}, "cat", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	const n = 16
	vec := feature.Vector{1, 0.01}
	var wg sync.WaitGroup
	outs := make([]QueryOutcome, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = cl.QueryFrame(vec, 0)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !outs[i].Found || outs[i].Hit.Label != "cat" {
			t.Fatalf("outcome %d = %+v", i, outs[i])
		}
	}
	ws := cl.WireStats()
	if got := ws.CoalescedInFlight + ws.CoalescedCached; got != n-1 {
		t.Fatalf("coalesced %d of %d duplicates", got, n-1)
	}
}

// hookClock calls hook before every reading of the clock.
type hookClock struct {
	simclock.Clock
	hook func()
}

func (h *hookClock) Now() time.Time {
	if h.hook != nil {
		h.hook()
	}
	return h.Clock.Now()
}

// TestCoalesceLateDuplicateFindsFlightOrAnswer pins the hand-over from
// in-flight coalescing to the answer cache: a duplicate that arrives
// while the leader is publishing its answer (stopped here at the clock
// reading that stamps the cached answer's expiry) must join the
// leader's flight or replay its answer, never find neither and query
// the peers a second time.
func TestCoalesceLateDuplicateFindsFlightOrAnswer(t *testing.T) {
	hc := &hookClock{}
	cl, services, _ := newCoalesceCluster(t, func(c *ClientConfig) {
		c.CoalesceTTL = time.Second
		hc.Clock = c.Clock
		c.Clock = hc
	})
	if _, err := services[0].Store().Insert(feature.Vector{1, 0}, "cat", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	vec := feature.Vector{1, 0.01}
	type answer struct {
		out QueryOutcome
		err error
	}
	late := make(chan answer, 1)
	var fired atomic.Bool
	var sentByLeader int64
	hc.hook = func() {
		sent := cl.WireStats().SentMsgs
		if sent == 0 || !fired.CompareAndSwap(false, true) {
			return // the leader has not queried its peers yet, or already stopped here
		}
		sentByLeader = sent
		done := make(chan struct{})
		go func() {
			out, err := cl.QueryFrame(vec, 0)
			late <- answer{out, err}
			close(done)
		}()
		// Hold the leader until the duplicate has resolved: it either
		// completes on its own (the bug: a second peer exchange) or
		// blocks on the leader's flight, which this wait times out on.
		select {
		case <-done:
		case <-time.After(50 * time.Millisecond):
		}
	}
	first, err := cl.QueryFrame(vec, 0)
	if err != nil || !first.Found {
		t.Fatalf("leader: %+v, %v", first, err)
	}
	if !fired.Load() {
		t.Fatal("the leader never read the clock after its peer exchange")
	}
	dup := <-late
	if dup.err != nil || !dup.out.Found || dup.out.Hit.Label != "cat" {
		t.Fatalf("duplicate: %+v, %v", dup.out, dup.err)
	}
	ws := cl.WireStats()
	if got := ws.CoalescedInFlight + ws.CoalescedCached; got != 1 {
		t.Fatalf("duplicate was not coalesced (in-flight %d, cached %d)", ws.CoalescedInFlight, ws.CoalescedCached)
	}
	if ws.SentMsgs != sentByLeader {
		t.Fatalf("duplicate hit the wire: %d messages sent, leader sent %d", ws.SentMsgs, sentByLeader)
	}
}

func TestGossipBatchFlushWhenFull(t *testing.T) {
	cl, services, _ := newCoalesceCluster(t, func(c *ClientConfig) {
		c.GossipBatch = 3
		c.GossipFlush = time.Hour // only the size trigger may fire
	})
	vecs := []feature.Vector{{1, 0}, {0, 1}, {1, 1}}
	for i, v := range vecs {
		cost, err := cl.Gossip(v, diffLabel(i), 0.9, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if i < len(vecs)-1 {
			if cost != 0 {
				t.Fatalf("queued gossip %d charged cost %v", i, cost)
			}
			for si, svc := range services {
				if svc.Store().Len() != 0 {
					t.Fatalf("peer %d saw gossip before the batch filled", si)
				}
			}
		} else if cost == 0 {
			t.Fatal("full batch flushed for free")
		}
	}
	for si, svc := range services {
		if got := svc.Store().Len(); got != 3 {
			t.Fatalf("peer %d store len = %d after batch flush", si, got)
		}
	}
	ws := cl.WireStats()
	if ws.Batches != 2 { // one batch frame per peer
		t.Fatalf("batches = %d", ws.Batches)
	}
	if got := ws.AvgBatch(); got != 3 {
		t.Fatalf("avg batch = %v", got)
	}
}

func TestGossipBatchFlushWhenDue(t *testing.T) {
	cl, services, clock := newCoalesceCluster(t, func(c *ClientConfig) {
		c.GossipBatch = 8
		c.GossipFlush = 100 * time.Millisecond
	})
	if _, err := cl.Gossip(feature.Vector{1, 0}, "cat", 0.9, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if services[0].Store().Len() != 0 {
		t.Fatal("gossip delivered before due time")
	}
	clock.Advance(150 * time.Millisecond)
	// The next pipeline activity flushes the due queue.
	if _, err := cl.QueryFrame(feature.Vector{0, 1}, 0); err != nil {
		t.Fatal(err)
	}
	for si, svc := range services {
		if svc.Store().Len() != 1 {
			t.Fatalf("peer %d missing due-flushed gossip", si)
		}
	}
}

func TestFlushGossipExplicit(t *testing.T) {
	cl, services, _ := newCoalesceCluster(t, func(c *ClientConfig) {
		c.GossipBatch = 8
		c.GossipFlush = time.Hour
	})
	if _, err := cl.Gossip(feature.Vector{1, 0}, "cat", 0.9, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	cost, err := cl.FlushGossip()
	if err != nil {
		t.Fatal(err)
	}
	if cost == 0 {
		t.Fatal("explicit flush charged nothing")
	}
	for si, svc := range services {
		if svc.Store().Len() != 1 {
			t.Fatalf("peer %d missing flushed gossip", si)
		}
	}
	// Idempotent on an empty queue.
	if cost, err := cl.FlushGossip(); err != nil || cost != 0 {
		t.Fatalf("empty flush: cost=%v err=%v", cost, err)
	}
}

// TestGossipBatchQueueClonesVector guards against scratch-buffer
// aliasing: the engine reuses its vector buffer across frames, so a
// queued gossip must hold its own copy.
func TestGossipBatchQueueClonesVector(t *testing.T) {
	cl, services, _ := newCoalesceCluster(t, func(c *ClientConfig) {
		c.GossipBatch = 2
		c.GossipFlush = time.Hour
	})
	scratch := feature.Vector{1, 0}
	if _, err := cl.Gossip(scratch, "cat", 0.9, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	scratch[0], scratch[1] = 0, 1 // engine reuses the buffer
	if _, err := cl.Gossip(scratch, "dog", 0.9, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := services[0].Store()
	if st.Len() != 2 {
		t.Fatalf("store len = %d", st.Len())
	}
	// The first entry must still answer at its original location.
	resp, err := services[0].HandleQuery(Query{Vec: feature.Vector{1, 0}, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Found || resp.Label != "cat" {
		t.Fatalf("aliased gossip corrupted the batch: %+v", resp)
	}
}
