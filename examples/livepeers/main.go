// Livepeers: two approximate-cache nodes exchanging recognition results
// over real TCP sockets on loopback — the same peer protocol the
// simulated experiments use, running on an actual network stack.
//
// Run with: go run ./examples/livepeers
package main

import (
	"fmt"
	"log"
	"time"

	"approxcache"
)

const sharedClassSeed = 1337

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func buildNode(seed int64) (*approxcache.Cache, *approxcache.Workload, error) {
	spec := approxcache.StationaryHeavyWorkload(300, seed)
	spec.ClassSeed = sharedClassSeed
	w, err := approxcache.GenerateWorkload(spec)
	if err != nil {
		return nil, nil, err
	}
	clf, err := approxcache.NewSimulatedClassifier(approxcache.MobileNetV2, w, seed)
	if err != nil {
		return nil, nil, err
	}
	cache, err := approxcache.New(clf, approxcache.Options{
		Clock: approxcache.NewVirtualClock(),
	})
	if err != nil {
		return nil, nil, err
	}
	return cache, w, nil
}

func replay(cache *approxcache.Cache, w *approxcache.Workload) error {
	prev := time.Duration(0)
	for _, fr := range w.Frames {
		win := w.IMUWindow(prev, fr.Offset)
		prev = fr.Offset
		if _, err := cache.ProcessWithTruth(fr.Image, win, approxcache.LabelOf(fr.Class)); err != nil {
			return err
		}
	}
	return nil
}

func report(name string, cache *approxcache.Cache) {
	stats := cache.Stats()
	counts := stats.CountBySource()
	q, h := stats.PeerQueries()
	fmt.Printf("%s: hit-rate %.1f%%  dnn-runs %d  peer-hits %d (of %d queries)  mean latency %v\n",
		name, stats.HitRate()*100, counts[approxcache.SourceDNN],
		counts[approxcache.SourcePeer], q, stats.Latency().Mean().Round(10*time.Microsecond))
	_ = h
}

func run() error {
	// Node A: sees the scenes first and serves its cache over TCP.
	nodeA, workA, err := buildNode(11)
	if err != nil {
		return err
	}
	srv, err := nodeA.ServeTCP("node-a", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() {
		if cerr := srv.Close(); cerr != nil {
			log.Printf("close server: %v", cerr)
		}
	}()
	fmt.Printf("node-a serving on %s\n", srv.Addr())
	if err := replay(nodeA, workA); err != nil {
		return err
	}
	report("node-a (worked alone)", nodeA)

	// Node B: different route past the same objects, peered with A
	// over real sockets. Its cold-cache misses are answered by A.
	nodeB, workB, err := buildNode(23)
	if err != nil {
		return err
	}
	client, err := nodeB.DialPeers(srv.Addr())
	if err != nil {
		return err
	}
	defer client.Close()
	pong, rtt, err := client.Ping("node-b", srv.Addr())
	if err != nil {
		return fmt.Errorf("ping: %w", err)
	}
	fmt.Printf("node-b connected to %q (%d cached entries, rtt %v)\n",
		pong.From, pong.Entries, rtt.Round(10*time.Microsecond))
	if err := replay(nodeB, workB); err != nil {
		return err
	}
	report("node-b (peered with A)", nodeB)

	counts := nodeB.Stats().CountBySource()
	if counts[approxcache.SourcePeer] > 0 {
		fmt.Printf("\nnode-b avoided %d DNN runs by asking node-a over TCP\n",
			counts[approxcache.SourcePeer])
	}
	return nil
}
