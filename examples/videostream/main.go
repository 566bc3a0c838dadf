// Videostream: continuous live-video recognition across changing motion
// regimes, showing how each reuse gate (inertial, video locality, local
// cache) takes over as the user stops, pans, and walks.
//
// Run with: go run ./examples/videostream
package main

import (
	"fmt"
	"log"
	"time"

	"approxcache"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A camera session with distinct phases: examine an object, pan
	// across the room, walk to the next room, examine again.
	spec := approxcache.WorkloadSpec{
		Name:       "camera-session",
		FPS:        15,
		IMURateHz:  100,
		NumClasses: 10,
		ImageW:     48,
		ImageH:     48,
		Segments: []approxcache.SegmentSpec{
			{Regime: approxcache.RegimeStationary, Frames: 150},
			{Regime: approxcache.RegimePanning, Frames: 120},
			{Regime: approxcache.RegimeWalking, Frames: 120},
			{Regime: approxcache.RegimeHandheld, Frames: 150},
		},
		Seed: 7,
	}
	workload, err := approxcache.GenerateWorkload(spec)
	if err != nil {
		return err
	}
	classifier, err := approxcache.NewSimulatedClassifier(approxcache.InceptionV3, workload, 7)
	if err != nil {
		return err
	}
	cache, err := approxcache.New(classifier, approxcache.Options{
		Clock: approxcache.NewVirtualClock(),
	})
	if err != nil {
		return err
	}

	// Track per-phase behaviour to show the gates trading off.
	type phase struct {
		name    string
		sources map[approxcache.Source]int
		latency time.Duration
		frames  int
	}
	phases := []*phase{}
	var cur *phase
	lastRegime := approxcache.MotionRegime(0)

	prev := time.Duration(0)
	for _, frame := range workload.Frames {
		if frame.Regime != lastRegime {
			cur = &phase{
				name:    frame.Regime.String(),
				sources: map[approxcache.Source]int{},
			}
			phases = append(phases, cur)
			lastRegime = frame.Regime
		}
		win := workload.IMUWindow(prev, frame.Offset)
		prev = frame.Offset
		res, err := cache.ProcessWithTruth(frame.Image, win, approxcache.LabelOf(frame.Class))
		if err != nil {
			return err
		}
		cur.sources[res.Source]++
		cur.latency += res.Latency
		cur.frames++
	}

	fmt.Printf("%-12s %8s %8s %8s %8s %8s %12s\n",
		"phase", "imu", "video", "local", "peer", "dnn", "mean-latency")
	for _, p := range phases {
		fmt.Printf("%-12s %8d %8d %8d %8d %8d %12v\n",
			p.name,
			p.sources[approxcache.SourceIMU],
			p.sources[approxcache.SourceVideo],
			p.sources[approxcache.SourceLocal],
			p.sources[approxcache.SourcePeer],
			p.sources[approxcache.SourceDNN],
			(p.latency / time.Duration(p.frames)).Round(10*time.Microsecond))
	}
	stats := cache.Stats()
	fmt.Printf("\noverall: hit rate %.1f%%, accuracy %.1f%%, mean latency %v (InceptionV3 alone: %v)\n",
		stats.HitRate()*100, stats.Accuracy()*100,
		stats.Latency().Mean().Round(10*time.Microsecond),
		approxcache.InceptionV3.MeanLatency)
	return nil
}
