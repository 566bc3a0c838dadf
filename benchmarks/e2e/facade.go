package main

import (
	"fmt"

	"approxcache"
	"approxcache/internal/core"
	"approxcache/internal/dnn"
)

// facadeFrames is how many leading frames of every stream checkFacade
// serves. The pool gets fewer: driven from one goroutine every miss is
// alone in its batch and waits out the batcher's window.
const (
	facadeFrames     = 300
	facadePoolFrames = 20
)

// checkFacade holds device.go to the constructors it copies. The
// harness is a module of its own, so the repository's `go test ./...`
// neither compiles nor runs it; a change to approxcache.New,
// JoinSimNetwork, ConnectAll or NewPool that device.go does not follow
// would otherwise make the benchmark measure a system nobody ships. So
// every run serves the head of its own inputs twice, on the
// hand-assembled system and on the one the facade builds from the same
// options, in single-goroutine order, and the two result sequences must
// be identical.
func checkFacade(in *inputs) error {
	n := facadeFrames
	if in.spec.kind == kindPool {
		n = facadePoolFrames
	}
	for _, sc := range in.scenarios {
		head := sc.head(n)
		sys, err := build(in.spec, head, nil)
		if err != nil {
			return fmt.Errorf("build %s: %w", sc.name, err)
		}
		got, err := serve(head, func(s int, f frameIn) (core.Result, error) {
			return sys.engines[s].ProcessWithTruth(f.img, f.win, f.truth)
		})
		sys.close()
		if err != nil {
			return fmt.Errorf("%s: %w", sc.name, err)
		}
		process, closeFacade, err := buildFacade(in.spec, head)
		if err != nil {
			return fmt.Errorf("facade for %s: %w", sc.name, err)
		}
		want, err := serve(head, process)
		closeFacade()
		if err != nil {
			return fmt.Errorf("facade for %s: %w", sc.name, err)
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("%s: result %d is %+v on the hand-assembled system, %+v on the facade's",
					sc.name, i, got[i], want[i])
			}
		}
	}
	return nil
}

// head returns sc cut down to the first n frames of every stream.
func (sc *scenario) head(n int) *scenario {
	out := *sc
	out.streams = make([][]frameIn, len(sc.streams))
	for s, stream := range sc.streams {
		out.streams[s] = stream[:min(n, len(stream))]
	}
	out.warm = min(sc.warm, n)
	return &out
}

// serve runs every frame of sc through process in single-goroutine
// order and returns the results.
func serve(sc *scenario, process func(stream int, f frameIn) (core.Result, error)) ([]core.Result, error) {
	var out []core.Result
	err := sc.eachFrame(func(s int, f frameIn) error {
		res, err := process(s, f)
		out = append(out, res)
		return err
	})
	return out, err
}

// buildFacade builds, through the public API alone, the system the
// workload describes: approxcache.New for a device, New + JoinSimNetwork
// + ConnectAll for a mesh, NewPool for a pool.
func buildFacade(spec workloadSpec, sc *scenario) (process func(int, frameIn) (core.Result, error), closeFn func(), err error) {
	clock := approxcache.NewVirtualClock()
	opts := approxcache.Options{Clock: clock, Capacity: spec.capacity, Shards: spec.shards}
	if spec.kind == kindPool {
		live, err := dnn.NewClassifier(profile, sc.classes, sc.clfSeed)
		if err != nil {
			return nil, nil, err
		}
		opts.BatchSize = len(sc.streams)
		pool, err := approxcache.NewPool(len(sc.streams), &accelerator{inner: live}, opts)
		if err != nil {
			return nil, nil, err
		}
		return func(s int, f frameIn) (core.Result, error) {
			return pool.Session(s).ProcessWithTruth(f.img, f.win, f.truth)
		}, pool.Close, nil
	}
	caches := make([]*approxcache.Cache, len(sc.streams))
	for d := range caches {
		if caches[d], err = approxcache.New(sc.memo, opts); err != nil {
			return nil, nil, err
		}
	}
	if spec.kind == kindMesh {
		net, err := approxcache.NewSimNetwork(sc.netSeed)
		if err != nil {
			return nil, nil, err
		}
		clients := make(map[string]*approxcache.PeerClient)
		for d, cache := range caches {
			name := fmt.Sprintf("device-%d", d)
			if clients[name], err = cache.JoinSimNetwork(net, name); err != nil {
				return nil, nil, err
			}
		}
		if err := approxcache.ConnectAll(clients); err != nil {
			return nil, nil, err
		}
	}
	return func(d int, f frameIn) (core.Result, error) {
		return caches[d].ProcessWithTruth(f.img, f.win, f.truth)
	}, func() {}, nil
}
