// Command cachenode runs a live approximate-cache node that serves the
// peer protocol over TCP. Nodes sharing a -class-seed recognize the
// same object vocabulary, so one node's cached results answer another
// node's queries.
//
// Typical two-terminal session:
//
//	# terminal 1: a warm node
//	cachenode -addr 127.0.0.1:7070 -warm 600
//
//	# terminal 2: a cold node that reuses terminal 1's work
//	cachenode -addr 127.0.0.1:7071 -peers 127.0.0.1:7070 -frames 300
//
// A node can also serve many concurrent client sessions from one
// process: they share one cache store, and micro-batched inference
// (optional) coalesces their concurrent misses:
//
//	cachenode -serve -sessions 16 -batch 8
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"approxcache"
	"approxcache/internal/dnn"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cachenode:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cachenode", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:0", "TCP listen address")
		name      = fs.String("name", "cachenode", "node name advertised in pings")
		peersFlag = fs.String("peers", "", "comma-separated peer addresses")
		frames    = fs.Int("frames", 300, "frames to process after warmup")
		warm      = fs.Int("warm", 0, "frames to process before serving stats (cache warmup)")
		seed      = fs.Int64("seed", 1, "workload seed (vary per node)")
		classSeed = fs.Int64("class-seed", 424242, "shared class vocabulary seed")
		model     = fs.String("model", "mobilenet-v2", "dnn profile (mobilenet-v2|squeezenet|inception-v3|resnet-50)")
		serve     = fs.Bool("serve", false, "keep serving after processing until interrupted")
		budget    = fs.Duration("peer-budget", 0, "per-frame peer time budget (0 = quarter of mean inference latency, negative = unbounded)")
		snapshot  = fs.String("snapshot", "", "snapshot file: warm-start from it on boot, save back to it on exit (crash-safe atomic write)")
		sessions  = fs.Int("sessions", 1, "concurrent client sessions sharing this node's cache")
		batch     = fs.Int("batch", 0, "micro-batch size for DNN inference across sessions (0 = unbatched)")
		deadline  = fs.Duration("deadline", 0, "per-request wall-clock budget; blown requests are answered from the degradation ladder (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *frames < 0:
		return fmt.Errorf("-frames must be non-negative, got %d", *frames)
	case *warm < 0:
		return fmt.Errorf("-warm must be non-negative, got %d", *warm)
	case *batch < 0:
		return fmt.Errorf("-batch must be non-negative, got %d", *batch)
	case *deadline < 0:
		return fmt.Errorf("-deadline must be non-negative, got %v", *deadline)
	case *sessions < 1:
		return fmt.Errorf("-sessions must be at least 1, got %d", *sessions)
	}

	profile, err := dnn.ProfileByName(*model)
	if err != nil {
		return err
	}
	// Session i replays its own stationary-heavy stream; every stream
	// draws from the shared vocabulary.
	workloads := make([]*approxcache.Workload, *sessions)
	for i := range workloads {
		spec := approxcache.StationaryHeavyWorkload(*warm+*frames, *seed+int64(i)*101)
		spec.ClassSeed = *classSeed
		if workloads[i], err = approxcache.GenerateWorkload(spec); err != nil {
			return fmt.Errorf("workload %d: %w", i, err)
		}
	}
	classifier, err := approxcache.NewSimulatedClassifier(profile, workloads[0], *seed)
	if err != nil {
		return fmt.Errorf("classifier: %w", err)
	}
	pool, err := approxcache.NewPool(*sessions, classifier, approxcache.Options{
		Clock:           approxcache.NewVirtualClock(),
		PeerBudget:      *budget,
		BatchSize:       *batch,
		RequestDeadline: *deadline,
	})
	if err != nil {
		return err
	}
	defer pool.Close()
	// Session 0 fronts the node: it loads and saves the snapshot,
	// answers peers and runs the peer gate. Every session shares its
	// store, so all of them benefit.
	front := pool.Session(0)

	if *snapshot != "" {
		// Recovery on start: a missing file is a cold start, a corrupt
		// one (torn write from a crash mid-save) is reported but not
		// fatal — the node just starts cold.
		n, lerr := front.LoadSnapshotFile(*snapshot)
		switch {
		case lerr != nil:
			fmt.Fprintf(os.Stderr, "cachenode: snapshot %s unusable (%v), starting cold\n", *snapshot, lerr)
		case n > 0:
			fmt.Printf("warm-started %d entries from %s\n", n, *snapshot)
		}
	}

	srv, err := front.ServeTCP(*name, *addr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := srv.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "cachenode: close:", cerr)
		}
	}()
	fmt.Printf("%s listening on %s (model %s, %d classes, %d sessions, batch %d)\n",
		*name, srv.Addr(), profile.Name, workloads[0].Spec.NumClasses, *sessions, *batch)

	var client *approxcache.PeerClient
	if *peersFlag != "" {
		addrs := strings.FieldsFunc(*peersFlag, func(r rune) bool { return r == ',' })
		if client, err = joinPeers(front, *name, addrs); err != nil {
			return err
		}
		defer client.Close()
	}

	// Every session finishes its warm-up before the timed run starts.
	if *warm > 0 {
		if err := replay(pool, workloads, 0, *warm, "warmup"); err != nil {
			return err
		}
	}
	if *frames > 0 {
		if err := replay(pool, workloads, *warm, *warm+*frames, "run"); err != nil {
			return err
		}
	}

	printStats(front, client)
	printServingStats(pool)
	if *serve {
		fmt.Println("serving peers; ctrl-c to exit")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	}
	if *snapshot != "" {
		if serr := front.SaveSnapshotFile(*snapshot); serr != nil {
			return fmt.Errorf("save snapshot: %w", serr)
		}
		fmt.Printf("saved %d entries to %s\n", front.Len(), *snapshot)
	}
	return nil
}

// replay drives frames [from, to) of every session's workload through
// its session, one goroutine per session, and prints the wall time
// until the last session finished.
func replay(pool *approxcache.Pool, workloads []*approxcache.Workload, from, to int, label string) error {
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(workloads))
	for s, w := range workloads {
		wg.Add(1)
		go func(s int, w *approxcache.Workload) {
			defer wg.Done()
			c := pool.Session(s)
			prev := time.Duration(0)
			if from > 0 {
				prev = w.Frames[from-1].Offset
			}
			for _, fr := range w.Frames[from:to] {
				win := w.IMUWindow(prev, fr.Offset)
				prev = fr.Offset
				if _, err := c.ProcessWithTruth(fr.Image, win, approxcache.LabelOf(fr.Class)); err != nil {
					errs[s] = fmt.Errorf("session %d frame %d: %w", s, fr.Index, err)
					return
				}
			}
		}(s, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	wall := time.Since(start)
	fmt.Printf("%s: %d sessions × %d frames in %v wall time (%.1f frames/sec)\n",
		label, len(workloads), to-from, wall.Round(time.Microsecond),
		float64(len(workloads)*(to-from))/wall.Seconds())
	return nil
}

// joinPeers dials addrs from cache, then probes them once so the peer
// gate asks only the peers that answered, warmest first, and prints
// what each advertised.
func joinPeers(cache *approxcache.Cache, name string, addrs []string) (*approxcache.PeerClient, error) {
	client, err := cache.DialPeers(addrs...)
	if err != nil {
		return nil, err
	}
	ranked := client.Probe(name, addrs)
	fmt.Printf("peering with %v (%d alive)\n", addrs, len(ranked))
	for _, p := range ranked {
		fmt.Printf("  %s: %d cached entries, rtt %v\n",
			p.Name, p.Entries, p.RTT.Round(10*time.Microsecond))
	}
	return client, nil
}

// printServingStats reports the multi-session layer: the
// micro-batcher's coalescing.
func printServingStats(pool *approxcache.Pool) {
	if bs, ok := pool.BatcherStats(); ok {
		fmt.Printf("batcher: %d frames in %d batches (avg %.1f), %d full, %d deadline flushes",
			bs.SizeSum, bs.Batches, bs.AvgSize(), bs.FullFlushes, bs.DeadlineFlushes)
		if bs.ExpiredDrops > 0 || bs.Overflows > 0 {
			fmt.Printf(", %d expired in queue, %d queue overflows", bs.ExpiredDrops, bs.Overflows)
		}
		fmt.Println()
	}
}

func printStats(cache *approxcache.Cache, client *approxcache.PeerClient) {
	stats := cache.Stats()
	fmt.Printf("frames: %d  hit-rate: %.1f%%  accuracy: %.1f%%  cache entries: %d\n",
		stats.Frames(), stats.HitRate()*100, stats.Accuracy()*100, cache.Len())
	sum := stats.Latency().Summary()
	fmt.Printf("latency: mean=%v p50=%v p99=%v\n", sum.Mean, sum.P50, sum.P99)
	counts := stats.CountBySource()
	fmt.Printf("sources: imu=%d video=%d local=%d peer=%d dnn=%d fallback=%d shed=%d\n",
		counts[approxcache.SourceIMU], counts[approxcache.SourceVideo],
		counts[approxcache.SourceLocal], counts[approxcache.SourcePeer],
		counts[approxcache.SourceDNN], counts[approxcache.SourceFallback],
		counts[approxcache.SourceShed])
	if sheds, drops := stats.Sheds(), stats.ExpiredDrops(); sheds > 0 || drops > 0 {
		fmt.Printf("overload: %d shed, %d expired in queue\n", sheds, drops)
	}
	if inDeadline, late := stats.DeadlineCompletions(); inDeadline+late > 0 {
		fmt.Printf("deadlines: %d in-deadline, %d late\n", inDeadline, late)
	}
	if sf := stats.SensorFaultTotal(); sf > 0 {
		fmt.Printf("sensor faults: %d flagged", sf)
		for _, kind := range sortedFaultKinds(stats.SensorFaults()) {
			fmt.Printf(" %s=%d", kind, stats.SensorFaults()[kind])
		}
		fmt.Println()
	}
	timeouts, retries, wtrips, wrecoveries, fastFails := stats.WatchdogEvents()
	if timeouts+retries+wtrips+wrecoveries+fastFails > 0 || stats.DegradedServeTotal() > 0 {
		fmt.Printf("watchdog: %d timeouts, %d retries, %d trips, %d recoveries, %d fast-fails, %d degraded serves\n",
			timeouts, retries, wtrips, wrecoveries, fastFails, stats.DegradedServeTotal())
	}
	q, h := stats.PeerQueries()
	if q > 0 {
		fmt.Printf("peer queries: %d (%d hits)\n", q, h)
	}
	if client != nil {
		health := client.Health()
		timeouts := 0
		for _, p := range health.Peers {
			timeouts += p.Timeouts
		}
		if health.Trips > 0 || timeouts > 0 || health.DegradedQueries > 0 {
			fmt.Printf("resilience: %d timeouts, %d breaker trips, %d recoveries, %d degraded queries\n",
				timeouts, health.Trips, health.Recoveries, health.DegradedQueries)
		}
		for _, p := range health.Peers {
			fmt.Printf("  peer %s: %s, %d ok / %d failed, rtt ewma %v\n",
				p.Peer, p.State, p.Successes, p.Failures, p.LatencyEWMA.Round(10*time.Microsecond))
		}
		if ws := client.WireStats(); ws.SentMsgs > 0 || ws.RecvMsgs > 0 {
			fmt.Printf("wire: sent %d msgs / %d B, recv %d msgs / %d B\n",
				ws.SentMsgs, ws.SentBytes, ws.RecvMsgs, ws.RecvBytes)
		}
	}
	ss := cache.StoreStats()
	fmt.Printf("store: %d entries (dnn=%d peer=%d), %d evictions, feature-cache reuse saved %v of inference\n",
		ss.Entries, ss.BySource["dnn"], ss.BySource["peer"], ss.Evictions,
		ss.SavedTotal.Round(time.Millisecond))
}

func sortedFaultKinds(m map[string]int) []string {
	kinds := make([]string, 0, len(m))
	for k := range m {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}
