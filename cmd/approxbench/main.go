// Command approxbench runs the evaluation suite (experiments E1–E25 from
// DESIGN.md; E24 is retired) and prints the tables recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	approxbench                 # run every experiment at full scale
//	approxbench -exp E1         # run one experiment
//	approxbench -frames 500     # smaller/faster runs
//	approxbench -parallel 8     # fan experiments/sweeps across workers
//	approxbench -list           # list the suite
//	approxbench -throughput     # multi-session saturation benchmark
//	approxbench -overload       # open-loop overload sweep
//	approxbench -drift          # label-drift cache-quality benchmark
//
// Independent experiments and sweep points run concurrently under
// -parallel; tables are printed in suite order and are identical to a
// serial run. -cpuprofile/-memprofile write pprof profiles so hot-path
// work can be driven by data, and -mutexprofile/-blockprofile write
// contention profiles from the same harness.
//
// -throughput drives concurrent synthetic client streams through the
// architecture ladder (single-mutex store → session pool → sharded
// store → sharded + micro-batched inference) against a serial
// accelerator occupancy model, and writes frames/sec, latency
// percentiles, and per-shard contention counters as JSON (default
// BENCH_throughput.json) for cmd/benchgate's speedup gate.
//
// -overload fires open-loop arrivals (0.5×–4× of measured capacity) at
// a deadline-and-admission-protected serving node and at an
// unprotected one, and writes goodput, latency percentiles, and shed
// counters as JSON (default BENCH_overload.json) for cmd/benchgate's
// goodput-retention gate.
//
// -drift replays one workload under recurring label drift against a
// no-drift baseline, an unprotected node, and a node with the
// self-healing quality layer (shadow audits, quarantine, gate
// recalibration), and writes tail accuracy, latency savings, and
// quality-layer activity as JSON (default BENCH_quality.json) for
// cmd/benchgate's accuracy-recovery and savings-retention gates.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"approxcache/internal/eval"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "approxbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("approxbench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment id (E1..E25), name, or \"all\"")
		frames   = fs.Int("frames", eval.DefaultScale().Frames, "per-device workload length in frames")
		seed     = fs.Int64("seed", eval.DefaultScale().Seed, "root random seed")
		format   = fs.String("format", "table", "output format: table | csv | markdown")
		list     = fs.Bool("list", false, "list experiments and exit")
		parallel = fs.Int("parallel", 1, "worker count for experiments and sweep points (1 = serial, -1 = NumCPU)")
		cpuprof  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = fs.String("memprofile", "", "write a heap profile to this file on exit")
		tput     = fs.Bool("throughput", false, "run the multi-session saturation benchmark and exit")
		tputJSON = fs.String("throughput-json", "BENCH_throughput.json", "with -throughput, write the report JSON here (empty = stdout only)")
		streams  = fs.Int("streams", 0, "with -throughput, concurrent client streams (0 = default 16)")
		tpFrames = fs.Int("tp-frames", 0, "with -throughput, frames per stream (0 = default 30)")
		overload = fs.Bool("overload", false, "run the open-loop overload sweep and exit")
		olJSON   = fs.String("overload-json", "BENCH_overload.json", "with -overload, write the report JSON here (empty = stdout only)")
		sessions = fs.Int("sessions", 0, "with -overload, serving pool sessions (0 = default 8)")
		drift    = fs.Bool("drift", false, "run the label-drift cache-quality benchmark and exit")
		qJSON    = fs.String("quality-json", "BENCH_quality.json", "with -drift, write the report JSON here (empty = stdout only)")
		dFrames  = fs.Int("drift-frames", 0, "with -drift, workload length (0 = default 1800)")
		hitheavy = fs.Bool("hitheavy", false, "run the lookup-bound hit-heavy benchmark and exit")
		luJSON   = fs.String("lookup-json", "BENCH_lookup.json", "with -hitheavy, write the report JSON here (empty = stdout only)")
		entries  = fs.Int("entries", 0, "with -hitheavy, resident cache entries (0 = default 4096)")
		p2pBench = fs.Bool("p2p", false, "run the bandwidth-constrained peer wire benchmark and exit")
		p2pJSON  = fs.String("p2p-json", "BENCH_p2p.json", "with -p2p, write the report JSON here (empty = stdout only)")
		p2pFr    = fs.Int("p2p-frames", 0, "with -p2p, scene frames per mode (0 = default 400)")
		mutexpr  = fs.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
		blockpr  = fs.String("blockprofile", "", "write a blocking profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mutexpr != "" {
		runtime.SetMutexProfileFraction(1)
		defer func() {
			if err := writeProfile("mutex", *mutexpr); err != nil {
				fmt.Fprintln(os.Stderr, "approxbench:", err)
			}
		}()
	}
	if *blockpr != "" {
		runtime.SetBlockProfileRate(1)
		defer func() {
			if err := writeProfile("block", *blockpr); err != nil {
				fmt.Fprintln(os.Stderr, "approxbench:", err)
			}
		}()
	}
	if *p2pBench {
		return runP2PBench(eval.P2PConfig{
			Frames: *p2pFr,
			Seed:   *seed,
		}, *p2pJSON)
	}
	if *hitheavy {
		return runLookupBench(eval.LookupConfig{
			Entries: *entries,
			Seed:    *seed,
		}, *luJSON)
	}
	if *tput {
		return runThroughput(eval.ThroughputConfig{
			Streams: *streams,
			Frames:  *tpFrames,
			Seed:    *seed,
		}, *tputJSON)
	}
	if *overload {
		return runOverloadBench(eval.OverloadConfig{
			Sessions: *sessions,
			Seed:     *seed,
		}, *olJSON)
	}
	if *drift {
		return runQualityBench(eval.QualityBenchConfig{
			Frames: *dFrames,
			Seed:   *seed,
		}, *qJSON)
	}
	if *list {
		for _, e := range eval.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Name)
		}
		return nil
	}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	scale := eval.Scale{Frames: *frames, Seed: *seed, Workers: *parallel}
	experiments := eval.All()
	if *exp != "all" {
		e, err := eval.ByID(*exp)
		if err != nil {
			return err
		}
		experiments = []eval.Experiment{e}
	}
	if *format != "table" && *format != "csv" && *format != "markdown" {
		return fmt.Errorf("unknown format %q", *format)
	}
	start := time.Now()
	reports, err := eval.RunExperiments(experiments, scale)
	if err != nil {
		return err
	}
	for _, report := range reports {
		switch *format {
		case "csv":
			fmt.Printf("# %s — %s\n%s\n", report.ID, report.Title, report.CSV())
		case "markdown":
			fmt.Println(report.Markdown())
		default:
			fmt.Println(report)
			fmt.Println()
		}
	}
	if *format == "table" {
		fmt.Printf("(%d experiment(s) completed in %v, parallel=%d)\n",
			len(reports), time.Since(start).Round(time.Millisecond), *parallel)
	}
	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	return nil
}

// writeProfile dumps a named runtime profile (mutex, block) to path.
func writeProfile(name, path string) error {
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("%sprofile: profile not found", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("%sprofile: %w", name, err)
	}
	defer f.Close()
	if err := p.WriteTo(f, 0); err != nil {
		return fmt.Errorf("%sprofile: %w", name, err)
	}
	return nil
}

// runThroughput executes the saturation benchmark, prints the
// architecture ladder, and records the report for the regression gate.
func runThroughput(cfg eval.ThroughputConfig, jsonPath string) error {
	start := time.Now()
	rep, err := eval.RunThroughput(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("throughput: %d streams × %d frames, %d shards, batch %d\n",
		rep.Streams, rep.Frames, rep.Shards, rep.MaxBatch)
	for _, r := range rep.Results {
		var contended int64
		for _, sh := range r.Shards {
			contended += sh.Contended
		}
		line := fmt.Sprintf("  %-22s %8.1f fps  p50=%6.2fms p95=%6.2fms p99=%6.2fms  dnn=%d hit=%.0f%%",
			r.Mode, r.FPS, r.P50MS, r.P95MS, r.P99MS, r.DNNFrames, r.HitRate*100)
		if r.Shards != nil {
			line += fmt.Sprintf(" contended=%d", contended)
		}
		if r.Batcher != nil {
			line += fmt.Sprintf(" avg-batch=%.1f", r.Batcher.AvgSize())
		}
		fmt.Println(line)
	}
	fmt.Printf("speedup (sharded+batched vs single-mutex): %.2fx in %v\n",
		rep.Speedup, time.Since(start).Round(time.Millisecond))
	if jsonPath != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}

// runLookupBench executes the lookup-bound hit-heavy benchmark, prints
// both pipeline configurations, and records the report for the lookup
// regression gate.
func runLookupBench(cfg eval.LookupConfig, jsonPath string) error {
	start := time.Now()
	rep, err := eval.RunLookup(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("lookup: %d entries, %d hit-heavy queries, dim %d, k=%d, %d bits\n",
		rep.Entries, rep.Queries, rep.Dim, rep.K, rep.Bits)
	for _, r := range rep.Results {
		sketch := "off"
		if r.SketchBits > 0 {
			sketch = fmt.Sprintf("%db", r.SketchBits)
		}
		fmt.Printf("  %-24s tables=%d probes=%d sketch=%-8s %9.0f ns/op  recall=%.3f  cand=%.0f  allocs=%.0f\n",
			r.Name, r.Tables, r.Probes, sketch, r.NsPerOp, r.Recall, r.Candidates, r.AllocsPerOp)
	}
	fmt.Printf("speedup (tuned vs exact-bucket): %.2fx at recall %.3f vs %.3f in %v\n",
		rep.Speedup, rep.RecallTuned, rep.RecallBase, time.Since(start).Round(time.Millisecond))
	if jsonPath != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}

// runP2PBench executes the bandwidth-constrained peer wire benchmark,
// prints the legacy-vs-compact comparison per link speed, and records
// the report for the p2p regression gate.
func runP2PBench(cfg eval.P2PConfig, jsonPath string) error {
	start := time.Now()
	rep, err := eval.RunP2P(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("p2p: %d peers, %d sessions, %d frames, dim %d\n",
		rep.Nodes, rep.Sessions, rep.Frames, rep.Dim)
	for _, pt := range rep.Points {
		for _, m := range []eval.P2PModeResult{pt.Legacy, pt.Compact} {
			fmt.Printf("  %5.2f MB/s %-11s %8.1f B/frame  hit=%.3f  mean=%6.2fms p95=%6.2fms  coalesced=%d+%d  batches=%d (avg %.1f)\n",
				pt.BandwidthMBps, m.Mode, m.BytesPerFrame, m.PeerHitRate,
				m.MeanLatencyMS, m.P95LatencyMS,
				m.CoalescedInFlight, m.CoalescedCached, m.Batches, m.AvgBatchItems)
		}
		fmt.Printf("  %5.2f MB/s reduction %.1fx, latency speedup %.2fx\n",
			pt.BandwidthMBps, pt.BytesReduction, pt.LatencySpeedup)
	}
	fmt.Printf("at %.2f MB/s: %.1fx bytes/frame reduction, hit rate %.3f -> %.3f in %v\n",
		rep.ConstrainedMBps, rep.BytesReduction, rep.HitLegacy, rep.HitCompact,
		time.Since(start).Round(time.Millisecond))
	if jsonPath != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}

// runQualityBench executes the label-drift benchmark, prints the three
// node runs, and records the report for the quality regression gate.
func runQualityBench(cfg eval.QualityBenchConfig, jsonPath string) error {
	start := time.Now()
	rep, err := eval.RunQuality(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("drift: %d frames, label space rotated by %d every %d frames from frame %d\n",
		rep.Frames, rep.Shift, rep.Frames/8, rep.DriftFrame)
	for _, r := range rep.Runs {
		line := fmt.Sprintf("  %-12s tail-acc=%.3f full-acc=%.3f tail=%6.2fms savings=%.3f",
			r.Name, r.TailAccuracy, r.FullAccuracy, r.TailMeanLatencyMS, r.LatencySavings)
		if r.Audits > 0 {
			line += fmt.Sprintf("  audits=%d refutes=%d quar=%d parole=%d/%d recal=%d/%d refusals=%d",
				r.Audits, r.AuditRefutes, r.Quarantines, r.Paroles, r.ParoleEvictions,
				r.RecalTightens, r.RecalLoosens, r.ReuseRefusals)
		}
		fmt.Println(line)
	}
	fmt.Printf("accuracy recovery %.3f, savings retention %.3f (unprotected tail accuracy %.3f) in %v\n",
		rep.AccuracyRecovery, rep.SavingsRetention, rep.UnprotectedAccuracy,
		time.Since(start).Round(time.Millisecond))
	if jsonPath != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}

// runOverloadBench executes the open-loop overload sweep, prints the
// load ladder for both node configurations, and records the report for
// the goodput-retention gate.
func runOverloadBench(cfg eval.OverloadConfig, jsonPath string) error {
	start := time.Now()
	rep, err := eval.RunOverload(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("overload: %d sessions, capacity %.0f req/s (closed-loop), deadline %.0fms\n",
		rep.Sessions, rep.CapacityRPS, rep.DeadlineMS)
	for _, p := range rep.Points {
		line := fmt.Sprintf("  %-12s %4gx %8.0f req/s offered  goodput=%7.0f/s  p50=%8.2fms p99=%8.2fms  shed=%d err=%d unfinished=%d",
			p.Mode, p.Load, p.OfferedRPS, p.GoodputRPS, p.P50MS, p.P99MS,
			p.Shed, p.Errors, p.Unfinished)
		if p.AdmissionLimit > 0 {
			line += fmt.Sprintf("  limit=%d level=%s", p.AdmissionLimit, p.BrownoutLevel)
		}
		fmt.Println(line)
	}
	fmt.Printf("goodput retention at max load: %.2f (resilient p99 %.1fms vs unprotected %.1fms) in %v\n",
		rep.Retention, rep.ResilientP99MS, rep.UnprotectedP99MS,
		time.Since(start).Round(time.Millisecond))
	if jsonPath != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}
