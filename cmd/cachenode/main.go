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
	"sync"
	"syscall"
	"time"

	"approxcache"
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
		admit     = fs.Bool("admission", false, "enable AIMD admission control on the DNN fallback (sheds excess load under overload)")
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

	profile, err := profileByName(*model)
	if err != nil {
		return err
	}
	if *sessions > 1 {
		return runPool(poolParams{
			name: *name, addr: *addr, peers: *peersFlag,
			sessions: *sessions, batch: *batch,
			frames: *frames, warm: *warm,
			seed: *seed, classSeed: *classSeed,
			profile: profile, serve: *serve, budget: *budget, snapshot: *snapshot,
			deadline: *deadline, admission: *admit,
		})
	}
	spec := approxcache.StationaryHeavyWorkload(*warm+*frames, *seed)
	spec.ClassSeed = *classSeed
	w, err := approxcache.GenerateWorkload(spec)
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	classifier, err := approxcache.NewSimulatedClassifier(profile, w, *seed)
	if err != nil {
		return fmt.Errorf("classifier: %w", err)
	}
	opts := approxcache.Options{
		Clock:           approxcache.NewVirtualClock(),
		PeerBudget:      *budget,
		RequestDeadline: *deadline,
		Admission:       *admit,
	}
	cache, err := approxcache.New(classifier, opts)
	if err != nil {
		return err
	}

	if *snapshot != "" {
		// Recovery on start: a missing file is a cold start, a corrupt
		// one (torn write from a crash mid-save) is reported but not
		// fatal — the node just starts cold.
		n, lerr := cache.LoadSnapshotFile(*snapshot)
		switch {
		case lerr != nil:
			fmt.Fprintf(os.Stderr, "cachenode: snapshot %s unusable (%v), starting cold\n", *snapshot, lerr)
		case n > 0:
			fmt.Printf("warm-started %d entries from %s\n", n, *snapshot)
		}
	}

	srv, err := cache.ServeTCP(*name, *addr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := srv.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "cachenode: close:", cerr)
		}
	}()
	fmt.Printf("%s listening on %s (model %s, %d classes)\n",
		*name, srv.Addr(), profile.Name, spec.NumClasses)

	var client *approxcache.PeerClient
	if *peersFlag != "" {
		if client, err = joinPeers(cache, *name, splitComma(*peersFlag)); err != nil {
			return err
		}
	}

	replay := func(frames []approxcache.Frame, label string) error {
		prev := time.Duration(0)
		start := time.Now()
		for _, fr := range frames {
			win := w.IMUWindow(prev, fr.Offset)
			prev = fr.Offset
			if _, err := cache.ProcessWithTruth(fr.Image, win, approxcache.LabelOf(fr.Class)); err != nil {
				return fmt.Errorf("frame %d: %w", fr.Index, err)
			}
		}
		fmt.Printf("%s: processed %d frames in %v wall time\n",
			label, len(frames), time.Since(start).Round(time.Millisecond))
		return nil
	}
	if *warm > 0 {
		if err := replay(w.Frames[:*warm], "warmup"); err != nil {
			return err
		}
	}
	if *frames > 0 {
		if err := replay(w.Frames[*warm:], "run"); err != nil {
			return err
		}
	}

	printStats(cache, client)
	if *serve {
		fmt.Println("serving peers; ctrl-c to exit")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	}
	if *snapshot != "" {
		if serr := cache.SaveSnapshotFile(*snapshot); serr != nil {
			return fmt.Errorf("save snapshot: %w", serr)
		}
		fmt.Printf("saved %d entries to %s\n", cache.Len(), *snapshot)
	}
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

// poolParams carries the multi-session serving configuration.
type poolParams struct {
	name, addr, peers string
	sessions          int
	batch             int
	frames, warm      int
	seed, classSeed   int64
	profile           approxcache.ModelProfile
	serve             bool
	budget            time.Duration
	snapshot          string
	deadline          time.Duration
	admission         bool
}

// runPool serves p.sessions concurrent client streams from one node:
// every stream gets its own gate state, all streams share the cache
// store, the stats scoreboard, and a micro-batching inference scheduler
// when -batch is set.
func runPool(p poolParams) error {
	workloads := make([]*approxcache.Workload, p.sessions)
	for i := range workloads {
		spec := approxcache.StationaryHeavyWorkload(p.warm+p.frames, p.seed+int64(i)*101)
		spec.ClassSeed = p.classSeed
		w, err := approxcache.GenerateWorkload(spec)
		if err != nil {
			return fmt.Errorf("workload %d: %w", i, err)
		}
		workloads[i] = w
	}
	classifier, err := approxcache.NewSimulatedClassifier(p.profile, workloads[0], p.seed)
	if err != nil {
		return fmt.Errorf("classifier: %w", err)
	}
	opts := approxcache.Options{
		Clock:           approxcache.NewVirtualClock(),
		PeerBudget:      p.budget,
		BatchSize:       p.batch,
		RequestDeadline: p.deadline,
		Admission:       p.admission,
	}
	pool, err := approxcache.NewPool(p.sessions, classifier, opts)
	if err != nil {
		return err
	}
	defer pool.Close()
	front := pool.Session(0)

	if p.snapshot != "" {
		n, lerr := front.LoadSnapshotFile(p.snapshot)
		switch {
		case lerr != nil:
			fmt.Fprintf(os.Stderr, "cachenode: snapshot %s unusable (%v), starting cold\n", p.snapshot, lerr)
		case n > 0:
			fmt.Printf("warm-started %d shared entries from %s\n", n, p.snapshot)
		}
	}

	srv, err := front.ServeTCP(p.name, p.addr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := srv.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "cachenode: close:", cerr)
		}
	}()
	fmt.Printf("%s listening on %s (model %s, %d sessions, batch %d)\n",
		p.name, srv.Addr(), p.profile.Name, p.sessions, p.batch)

	var client *approxcache.PeerClient
	if p.peers != "" {
		// The peer gate rides on session 0; every session still benefits
		// because peer answers land in the shared store.
		if client, err = joinPeers(front, p.name, splitComma(p.peers)); err != nil {
			return err
		}
	}

	total := p.warm + p.frames
	if total > 0 {
		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, p.sessions)
		for s := 0; s < p.sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				c := pool.Session(s)
				w := workloads[s]
				prev := time.Duration(0)
				for _, fr := range w.Frames {
					win := w.IMUWindow(prev, fr.Offset)
					prev = fr.Offset
					if _, err := c.ProcessWithTruth(fr.Image, win, approxcache.LabelOf(fr.Class)); err != nil {
						errs[s] = fmt.Errorf("session %d frame %d: %w", s, fr.Index, err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		wall := time.Since(start)
		fmt.Printf("run: %d sessions × %d frames in %v wall time (%.1f frames/sec)\n",
			p.sessions, total, wall.Round(time.Millisecond),
			float64(p.sessions*total)/wall.Seconds())
	}

	printStats(front, client)
	printServingStats(pool)
	if p.serve {
		fmt.Println("serving peers; ctrl-c to exit")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	}
	if p.snapshot != "" {
		if serr := front.SaveSnapshotFile(p.snapshot); serr != nil {
			return fmt.Errorf("save snapshot: %w", serr)
		}
		fmt.Printf("saved %d entries to %s\n", front.Len(), p.snapshot)
	}
	return nil
}

// printServingStats reports the multi-session layers: the
// micro-batcher's coalescing and the admission limiter.
func printServingStats(pool *approxcache.Pool) {
	if bs, ok := pool.BatcherStats(); ok {
		fmt.Printf("batcher: %d frames in %d batches (avg %.1f), %d full, %d deadline flushes",
			bs.Frames, bs.Batches, bs.AvgSize(), bs.FullFlushes, bs.DeadlineFlushes)
		if bs.ExpiredDrops > 0 || bs.Overflows > 0 {
			fmt.Printf(", %d expired in queue, %d queue overflows", bs.ExpiredDrops, bs.Overflows)
		}
		fmt.Println()
	}
	if snap, ok := pool.AdmissionSnapshot(); ok {
		fmt.Printf("admission: limit %d (inflight %d), %d admitted, %d shed, brownout %s (%d transitions)\n",
			snap.Limit, snap.Inflight, snap.Admitted, snap.Shed, snap.Level, snap.Transitions)
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
		up, down := stats.BrownoutTransitions()
		fmt.Printf("overload: %d shed, %d expired in queue, brownout %d up / %d down\n",
			sheds, drops, up, down)
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
	if trips, recoveries := stats.BreakerEvents(); trips > 0 || stats.PeerTimeouts() > 0 || stats.DegradedFrames() > 0 {
		fmt.Printf("resilience: %d timeouts, %d breaker trips, %d recoveries, %d degraded frames\n",
			stats.PeerTimeouts(), trips, recoveries, stats.DegradedFrames())
	}
	if client != nil {
		for _, p := range client.Health().Peers {
			fmt.Printf("  peer %s: %s, %d ok / %d failed, rtt ewma %v\n",
				p.Peer, p.State, p.Successes, p.Failures, p.LatencyEWMA.Round(10*time.Microsecond))
		}
		if ws := client.WireStats(); ws.SentMsgs > 0 || ws.RecvMsgs > 0 {
			fmt.Printf("wire: sent %d msgs / %d B, recv %d msgs / %d B\n",
				ws.SentMsgs, ws.SentBytes, ws.RecvMsgs, ws.RecvBytes)
			if ws.CoalescedInFlight+ws.CoalescedCached > 0 || ws.Batches > 0 {
				fmt.Printf("wire: coalesced %d in-flight + %d cached, %d gossip batches (avg %.1f items)\n",
					ws.CoalescedInFlight, ws.CoalescedCached, ws.Batches, ws.AvgBatch())
			}
		}
	}
	ss := cache.StoreStats()
	fmt.Printf("store: %d entries (dnn=%d peer=%d), %d evictions, feature-cache reuse saved %v of inference\n",
		ss.Entries, ss.BySource["dnn"], ss.BySource["peer"], ss.Evictions,
		ss.SavedTotal.Round(time.Millisecond))
}

func profileByName(name string) (approxcache.ModelProfile, error) {
	for _, p := range []approxcache.ModelProfile{
		approxcache.MobileNetV2,
		approxcache.SqueezeNet,
		approxcache.InceptionV3,
		approxcache.ResNet50,
	} {
		if p.Name == name {
			return p, nil
		}
	}
	return approxcache.ModelProfile{}, fmt.Errorf("unknown model %q", name)
}

func sortedFaultKinds(m map[string]int) []string {
	kinds := make([]string, 0, len(m))
	for k := range m {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
