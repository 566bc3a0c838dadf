// Command approxbench runs the evaluation suite (experiments E1–E25 from
// DESIGN.md; E6, E9, E13, E15, E16 and E24 are retired) and prints the tables
// recorded in EXPERIMENTS.md.
//
// Usage:
//
//	approxbench                 # run every experiment at full scale
//	approxbench -exp E1         # run one experiment
//	approxbench -frames 500     # smaller/faster runs
//	approxbench -parallel 8     # fan experiments/sweeps across workers (-1: one per CPU)
//	approxbench -list           # list the suite
//	approxbench -exp E20 -json BENCH_throughput.json   # record a gated report
//
// Independent simulation experiments and sweep points run concurrently
// under -parallel; tables are printed in suite order and are identical
// to a serial run. The wall-clock experiments (E20, E21, E22) run
// alone after that batch, so their timings are never taken beside
// another experiment. -cpuprofile/-memprofile write pprof profiles so
// hot-path work can be driven by data, and -mutexprofile/-blockprofile
// write contention profiles from the same harness.
//
// The gated benchmarks are experiments like any other: E20 (serving
// throughput), E21 (overload resilience), E22 (lookup pipeline), E23
// (cache quality under label drift) and E25 (P2P wire protocol). With a
// single -exp, -json FILE also writes the experiment's typed report,
// stamped with the host it ran on, for cmd/benchgate to judge; at the
// default -frames that is the configuration the checked-in BENCH_*.json
// files record (`make bench` re-records them all).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"approxcache/internal/benchfile"
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
		exp      = fs.String("exp", "all", "experiment id (E1..E25; E6, E9, E13, E15, E16 and E24 are retired), name, or \"all\"")
		frames   = fs.Int("frames", eval.DefaultScale().Frames, "per-device workload length in frames")
		seed     = fs.Int64("seed", eval.DefaultScale().Seed, "root random seed")
		list     = fs.Bool("list", false, "list experiments and exit")
		parallel = fs.Int("parallel", 1, "worker count for experiments and sweep points (1 = serial, -1 = NumCPU)")
		cpuprof  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = fs.String("memprofile", "", "write a heap profile to this file on exit")
		jsonPath = fs.String("json", "", "with a single -exp, also write the experiment's typed report (plus a host stamp) to this file")
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
	workers := *parallel
	if workers < 0 {
		workers = runtime.NumCPU()
	}
	scale := eval.Scale{Frames: *frames, Seed: *seed, Workers: workers}
	experiments := eval.All()
	if *exp != "all" {
		e, err := eval.ByID(*exp)
		if err != nil {
			return err
		}
		experiments = []eval.Experiment{e}
	}
	if *jsonPath != "" && *exp == "all" {
		return fmt.Errorf("-json records one experiment's report: name it with -exp")
	}
	start := time.Now()
	reports, err := eval.RunExperiments(experiments, scale)
	if err != nil {
		return err
	}
	for _, report := range reports {
		fmt.Println(report)
		fmt.Println()
	}
	fmt.Printf("(%d experiment(s) completed in %v, parallel=%d)\n",
		len(reports), time.Since(start).Round(time.Millisecond), workers)
	if *jsonPath != "" {
		if reports[0].Data == nil {
			return fmt.Errorf("-json: experiment %s has no typed report to record", reports[0].ID)
		}
		if err := benchfile.Write(*jsonPath, reports[0].Data); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonPath)
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
