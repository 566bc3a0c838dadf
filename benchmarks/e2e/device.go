package main

import (
	"fmt"
	"slices"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/core"
	"approxcache/internal/dnn"
	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/metrics"
	"approxcache/internal/p2p"
	"approxcache/internal/simclock"
	"approxcache/internal/simnet"
	"approxcache/internal/vision"
)

// Devices are assembled here from the internal packages, step for step
// as approxcache.New, Cache.JoinSimNetwork, ConnectAll and
// approxcache.NewPool do, because the facade hides the seams a traced
// run has to wrap. checkFacade (facade.go) holds the two together in
// every run. With rec == nil nothing is wrapped.

// Store defaults of approxcache.newStore.
const (
	defaultCapacity = 256
	lshBits         = 12
	lshTables       = 4
	lshSeed         = 1
)

// system is one scenario's freshly built program under test.
type system struct {
	clock *simclock.Virtual
	// engines has one entry per camera stream.
	engines []*core.Engine
	// stores are the raw (unwrapped) stores, one per device (one for a
	// whole pool), for occupancy and eviction counters.
	stores []cachestore.Interface
	// stats are the distinct session-stats scoreboards.
	stats   []*metrics.SessionStats
	clients []*p2p.Client
	batcher *dnn.Batcher
	accel   *accelerator

	// Traced runs only.
	tStores     []*tracedStore
	tIndexes    []*tracedIndex
	tTransports []*tracedTransport
	tClassifier *tracedClassifier
}

// close stops what the system started (the pool's micro-batcher).
func (s *system) close() {
	if s.batcher != nil {
		s.batcher.Close()
	}
}

// pipelineConfig is engineConfig(Options{}): the default pipeline.
func pipelineConfig(rec *recorder) core.Config {
	cfg := core.DefaultConfig()
	if rec != nil {
		cfg.Extractor = &tracedExtractor{inner: cfg.Extractor.(feature.IntoExtractor), rec: rec}
	}
	return cfg
}

// newStore mirrors approxcache.newStore for Options{Capacity, Shards}.
func (s *system) newStore(cfg core.Config, spec workloadSpec, rec *recorder, dev int8) (cachestore.Interface, error) {
	capacity := spec.capacity
	if capacity == 0 {
		capacity = defaultCapacity
	}
	dim := cfg.Extractor.Dim()
	newIndex := func(int) (lsh.Index, error) {
		idx, err := lsh.NewHyperplaneTuned(dim, lshBits, lshTables, lshSeed, cfg.IndexTuning)
		if err != nil || rec == nil {
			return idx, err
		}
		ti := &tracedIndex{inner: idx, rec: rec, dev: dev}
		s.tIndexes = append(s.tIndexes, ti)
		return ti, nil
	}
	scfg := cachestore.Config{Capacity: capacity, Policy: cachestore.CostAware}
	var raw cachestore.Interface
	if spec.shards > 1 {
		st, err := cachestore.NewSharded(cachestore.ShardedConfig{
			Config: scfg, Dim: dim, Shards: spec.shards, RouterSeed: lshSeed,
		}, newIndex, s.clock)
		if err != nil {
			return nil, err
		}
		raw = st
	} else {
		idx, err := newIndex(0)
		if err != nil {
			return nil, err
		}
		st, err := cachestore.New(scfg, idx, s.clock)
		if err != nil {
			return nil, err
		}
		raw = st
	}
	s.stores = append(s.stores, raw)
	if rec == nil {
		return raw, nil
	}
	ts := &tracedStore{Interface: raw, rec: rec, dev: dev}
	s.tStores = append(s.tStores, ts)
	return ts, nil
}

// build assembles a fresh system for sc.
func build(spec workloadSpec, sc *scenario, rec *recorder) (*system, error) {
	s := &system{clock: simclock.NewVirtual(time.Unix(0, 0))}
	cfg := pipelineConfig(rec)
	switch spec.kind {
	case kindPool:
		return s, s.buildPool(cfg, spec, sc, rec)
	default:
		return s, s.buildDevices(cfg, spec, sc, rec)
	}
}

// buildDevices assembles one engine per stream; with more than one
// stream the devices join a simulated network as a full mesh.
func (s *system) buildDevices(cfg core.Config, spec workloadSpec, sc *scenario, rec *recorder) error {
	var classifier core.Classifier = sc.memo
	if rec != nil {
		s.tClassifier = &tracedClassifier{inner: sc.memo, rec: rec}
		classifier = s.tClassifier
	}
	var net *simnet.Network
	if spec.kind == kindMesh {
		var err error
		if net, err = simnet.New(simnet.DefaultLinkProfile(), sc.netSeed); err != nil {
			return err
		}
	}
	names := make([]string, len(sc.streams))
	for d := range sc.streams {
		store, err := s.newStore(cfg, spec, rec, int8(d))
		if err != nil {
			return err
		}
		engine, err := core.New(cfg, core.Deps{Clock: s.clock, Classifier: classifier, Store: store})
		if err != nil {
			return err
		}
		s.engines = append(s.engines, engine)
		s.stats = append(s.stats, engine.Stats())
		if net == nil {
			continue
		}
		// Cache.JoinSimNetwork.
		names[d] = fmt.Sprintf("device-%d", d)
		svc, err := p2p.NewService(p2p.DefaultServiceConfig(names[d]), store)
		if err != nil {
			return err
		}
		if err := p2p.RegisterService(net, svc); err != nil {
			return err
		}
		var tr p2p.Transport
		if tr, err = p2p.NewSimnetTransport(names[d], net); err != nil {
			return err
		}
		if rec != nil {
			tt := &tracedTransport{inner: tr, rec: rec, dev: int8(d)}
			s.tTransports = append(s.tTransports, tt)
			tr = tt
		}
		ccfg := p2p.DefaultClientConfig()
		ccfg.Clock = s.clock
		client, err := p2p.NewClient(ccfg, tr)
		if err != nil {
			return err
		}
		engine.SetPeers(client)
		s.clients = append(s.clients, client)
	}
	// ConnectAll: every client points at all the other nodes, sorted.
	sorted := slices.Clone(names)
	slices.Sort(sorted)
	for d, client := range s.clients {
		peers := make([]string, 0, len(sorted)-1)
		for _, name := range sorted {
			if name != names[d] {
				peers = append(peers, name)
			}
		}
		client.SetPeers(peers)
	}
	return nil
}

// buildPool mirrors approxcache.NewPool(sessions, accelerator,
// Options{Shards, BatchSize: sessions, Capacity}).
func (s *system) buildPool(cfg core.Config, spec workloadSpec, sc *scenario, rec *recorder) error {
	live, err := dnn.NewClassifier(profile, sc.classes, sc.clfSeed)
	if err != nil {
		return err
	}
	s.accel = &accelerator{inner: live}
	store, err := s.newStore(cfg, spec, rec, -1)
	if err != nil {
		return err
	}
	sessions := len(sc.streams)
	var classifier core.Classifier = s.accel
	if spec.batchPerSession && sessions > 1 {
		s.batcher, err = dnn.NewBatcher(dnn.BatcherConfig{
			MaxBatch: sessions,
			MaxWait:  dnn.DefaultBatcherConfig().MaxWait,
		}, s.accel)
		if err != nil {
			return err
		}
		classifier = s.batcher
	}
	if rec != nil {
		s.accel.occ = make(map[*vision.Image]time.Duration)
		s.tClassifier = &tracedClassifier{inner: classifier, rec: rec, accel: s.accel}
		classifier = s.tClassifier
	}
	pool, err := core.NewPool(sessions, cfg, core.Deps{Clock: s.clock, Classifier: classifier, Store: store})
	if err != nil {
		s.close()
		return err
	}
	s.engines = pool.Sessions()
	s.stats = []*metrics.SessionStats{pool.Stats()}
	return nil
}
