package core

import (
	"testing"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/dnn"
	"approxcache/internal/lsh"
	"approxcache/internal/metrics"
	"approxcache/internal/p2p"
	"approxcache/internal/simclock"
	"approxcache/internal/simnet"
	"approxcache/internal/trace"
)

// replayWorkload runs a full workload through an engine built from cfg
// and returns its stats.
func replayWorkload(t *testing.T, cfg Config, spec trace.Spec, peers *p2p.Client,
	storeCfg cachestore.Config) *metrics.SessionStats {
	t.Helper()
	w, err := trace.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewVirtual(time.Unix(0, 0))
	classifier, err := dnn.NewClassifier(dnn.MobileNetV2, w.Classes, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	var store *cachestore.Store
	if cfg.Mode == ModeApprox {
		idx, err := lsh.NewHyperplane(cfg.Extractor.Dim(), 12, 4, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if storeCfg.Capacity == 0 {
			storeCfg.Capacity = 128
		}
		store, err = cachestore.New(storeCfg, idx, clock)
		if err != nil {
			t.Fatal(err)
		}
	}
	eng, err := New(cfg, Deps{Clock: clock, Classifier: classifier, Store: store, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	labels := make(map[string]bool)
	for c := 0; c < w.Classes.NumClasses(); c++ {
		labels[dnn.LabelOf(c)] = true
	}
	prev := time.Duration(0)
	for _, fr := range w.Frames {
		win := w.IMUWindow(prev, fr.Offset)
		prev = fr.Offset
		res, err := eng.ProcessWithTruth(fr.Image, win, dnn.LabelOf(fr.Class))
		if err != nil {
			t.Fatalf("frame %d: %v", fr.Index, err)
		}
		// Per-frame invariants.
		if res.Label == "" || !labels[res.Label] {
			t.Fatalf("frame %d: label %q outside vocabulary", fr.Index, res.Label)
		}
		if res.Latency < 0 {
			t.Fatalf("frame %d: negative latency %v", fr.Index, res.Latency)
		}
		if res.EnergyMJ < 0 {
			t.Fatalf("frame %d: negative energy %v", fr.Index, res.EnergyMJ)
		}
		switch res.Source {
		case metrics.SourceIMU, metrics.SourceVideo, metrics.SourceLocal,
			metrics.SourcePeer, metrics.SourceDNN:
		default:
			t.Fatalf("frame %d: invalid source %q", fr.Index, res.Source)
		}
	}
	return eng.Stats()
}

// The engine keeps serving when every peer is unreachable: the peer
// gate degrades to a miss, never to an error.
func TestEngineSurvivesDeadPeers(t *testing.T) {
	net, err := simnet.New(simnet.DefaultLinkProfile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := p2p.NewSimnetTransport("lonely", net)
	if err != nil {
		t.Fatal(err)
	}
	client, err := p2p.NewClient(p2p.DefaultClientConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	client.SetPeers([]string{"ghost-1", "ghost-2"}) // never registered
	spec := trace.WalkingTour(120, 7)
	stats := replayWorkload(t, DefaultConfig(), spec, client, cachestore.Config{})
	if stats.Frames() != 120 {
		t.Fatalf("frames = %d", stats.Frames())
	}
	queries, hits := stats.PeerQueries()
	if queries == 0 {
		t.Fatal("dead peers were never queried")
	}
	if hits != 0 {
		t.Fatalf("ghost peers produced %d hits", hits)
	}
}

// A tiny store forces constant eviction churn; the pipeline must stay
// correct (labels in vocabulary, accounting intact).
func TestEngineWithTinyStore(t *testing.T) {
	spec := trace.PanningSweep(200, 5)
	stats := replayWorkload(t, DefaultConfig(), spec, nil, cachestore.Config{
		Capacity: 2,
		Policy:   cachestore.LRU,
	})
	if stats.Frames() != 200 {
		t.Fatalf("frames = %d", stats.Frames())
	}
}
