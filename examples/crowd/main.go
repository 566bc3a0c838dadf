// Crowd: a museum-tour scenario — five visitors walk the same galleries
// with their phones, sharing recognition results over an
// infrastructure-less peer-to-peer mesh (simulated short-range radio).
// Later visitors reuse the work of earlier ones and run their DNNs far
// less.
//
// Run with: go run ./examples/crowd
package main

import (
	"fmt"
	"log"
	"time"

	"approxcache"
)

const (
	visitors   = 5
	frames     = 400
	sharedSeed = 4242 // all visitors see the same exhibits
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

type visitor struct {
	name     string
	cache    *approxcache.Cache
	workload *approxcache.Workload
	client   *approxcache.PeerClient
	prev     time.Duration
	next     int
}

func run() error {
	net, err := approxcache.NewSimNetwork(9)
	if err != nil {
		return err
	}
	clock := approxcache.NewVirtualClock()

	// Build the visitors. Each walks their own route (own Seed) past
	// the same exhibits (shared ClassSeed).
	vs := make([]*visitor, 0, visitors)
	clients := make(map[string]*approxcache.PeerClient, visitors)
	for i := 0; i < visitors; i++ {
		spec := approxcache.WorkloadSpec{
			Name:       fmt.Sprintf("visitor-%d", i),
			FPS:        15,
			IMURateHz:  100,
			NumClasses: 12,
			ImageW:     48,
			ImageH:     48,
			Segments: []approxcache.SegmentSpec{
				{Regime: approxcache.RegimeWalking, Frames: frames * 35 / 100},
				{Regime: approxcache.RegimeStationary, Frames: frames * 30 / 100},
				{Regime: approxcache.RegimeWalking, Frames: frames * 20 / 100},
				{Regime: approxcache.RegimeHandheld, Frames: frames * 15 / 100},
			},
			Seed:      int64(100 + i*37),
			ClassSeed: sharedSeed,
		}
		w, err := approxcache.GenerateWorkload(spec)
		if err != nil {
			return err
		}
		clf, err := approxcache.NewSimulatedClassifier(approxcache.MobileNetV2, w, int64(i+1))
		if err != nil {
			return err
		}
		cache, err := approxcache.New(clf, approxcache.Options{Clock: clock})
		if err != nil {
			return err
		}
		name := fmt.Sprintf("visitor-%d", i)
		client, err := cache.JoinSimNetwork(net, name)
		if err != nil {
			return err
		}
		clients[name] = client
		vs = append(vs, &visitor{name: name, cache: cache, workload: w, client: client})
	}
	if err := approxcache.ConnectAll(clients); err != nil {
		return err
	}

	// Interleave the visitors' frames in timestamp order so sharing
	// happens causally: whoever sees an exhibit first recognizes it
	// for everyone.
	for {
		var pick *visitor
		for _, v := range vs {
			if v.next >= len(v.workload.Frames) {
				continue
			}
			if pick == nil ||
				v.workload.Frames[v.next].Offset < pick.workload.Frames[pick.next].Offset {
				pick = v
			}
		}
		if pick == nil {
			break
		}
		fr := pick.workload.Frames[pick.next]
		win := pick.workload.IMUWindow(pick.prev, fr.Offset)
		pick.prev = fr.Offset
		pick.next++
		if _, err := pick.cache.ProcessWithTruth(fr.Image, win, approxcache.LabelOf(fr.Class)); err != nil {
			return fmt.Errorf("%s: %w", pick.name, err)
		}
	}

	fmt.Printf("%-10s %9s %9s %9s %10s %13s %9s\n",
		"visitor", "hit-rate", "peer-hit", "dnn-runs", "accuracy", "mean-latency", "energy")
	var totalDNN int
	for _, v := range vs {
		stats := v.cache.Stats()
		counts := stats.CountBySource()
		totalDNN += counts[approxcache.SourceDNN]
		fmt.Printf("%-10s %8.1f%% %9d %9d %9.1f%% %13v %8.0fJ\n",
			v.name,
			stats.HitRate()*100,
			counts[approxcache.SourcePeer],
			counts[approxcache.SourceDNN],
			stats.Accuracy()*100,
			stats.Latency().Mean().Round(10*time.Microsecond),
			stats.EnergyMJ()/1000)
	}
	fmt.Printf("\nthe crowd ran the DNN %d times for %d frames (%.1f%% of a cache-less crowd)\n",
		totalDNN, visitors*frames, float64(totalDNN)/float64(visitors*frames)*100)
	return nil
}
