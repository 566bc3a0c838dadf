// Command benchgate turns `go test -bench` output into a JSON record
// and enforces allocation budgets on the hot-path benchmarks, so a PR
// that quietly reintroduces per-query allocation fails `make check`
// instead of shipping. It has no dependencies beyond the standard
// library: benchmark output is piped in on stdin.
//
// Usage:
//
//	go test -run '^$' -bench HotPath -benchmem ./... | \
//	    benchgate -json BENCH_hotpath.json -budgets 'HotPathNearest=0,HotPathFusedExtract=0'
//
// Budgets name a benchmark (substring match, sub-benchmarks included)
// and pin its maximum allowed allocs/op. A budgeted benchmark missing
// from the input is an error — a silently deleted benchmark must not
// pass the gate.
//
// A second mode gates the serving-throughput report instead of
// benchmark output:
//
//	benchgate -throughput-json BENCH_throughput.json -min-speedup 3.0
//
// It reads the JSON written by `approxbench -throughput` and fails
// unless the sharded+batched architecture beat the single-mutex
// baseline by at least -min-speedup. Stdin is not read in this mode.
//
// A third mode gates the overload-resilience report:
//
//	benchgate -overload-json BENCH_overload.json -min-retention 0.85
//
// It reads the JSON written by `approxbench -overload` and fails
// unless the admission-protected node retained at least -min-retention
// of its peak goodput at the highest offered load.
//
// A fourth mode gates the lookup-pipeline report:
//
//	benchgate -lookup-json BENCH_lookup.json -min-lookup-speedup 1.3
//
// It reads the JSON written by `approxbench -hitheavy` and fails
// unless the multi-probe + sketch pipeline beat the exact-bucket
// baseline by at least -min-lookup-speedup ns/op AND matched or beat
// its recall AND ran the warm path with zero heap allocations.
//
// A fifth mode gates the cache-quality (label-drift) report:
//
//	benchgate -quality-json BENCH_quality.json \
//	    -min-accuracy-recovery 0.95 -min-savings-retention 0.6
//
// It reads the JSON written by `approxbench -drift` and fails unless
// the self-healing node recovered at least -min-accuracy-recovery of
// the no-drift baseline's tail accuracy while retaining at least
// -min-savings-retention of its latency savings.
//
// A sixth mode gates the P2P wire-protocol report:
//
//	benchgate -p2p-json BENCH_p2p.json -min-bytes-reduction 4.0
//
// It reads the JSON written by `approxbench -p2p` and fails unless the
// compact protocol (quantized codec v2 + delta digests + coalescing +
// gossip batching) cut wire bytes per frame by at least
// -min-bytes-reduction at the most constrained bandwidth, without
// losing any peer hit rate versus the legacy float64 protocol.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// HasMem records whether -benchmem columns were present, so a zero
	// AllocsPerOp is distinguishable from an unmeasured one.
	HasMem bool `json:"has_mem"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	var (
		jsonPath   = fs.String("json", "", "write parsed results to this file as JSON")
		budgets    = fs.String("budgets", "", "comma-separated Name=maxAllocsPerOp gates")
		tputJSON   = fs.String("throughput-json", "", "gate a throughput report file instead of reading benchmarks from stdin")
		minSpeedup = fs.Float64("min-speedup", 3.0, "with -throughput-json, minimum required sharded+batched speedup over single-mutex")
		olJSON     = fs.String("overload-json", "", "gate an overload report file instead of reading benchmarks from stdin")
		minRetain  = fs.Float64("min-retention", 0.85, "with -overload-json, minimum required goodput retention at the highest offered load")
		luJSON     = fs.String("lookup-json", "", "gate a lookup-pipeline report file instead of reading benchmarks from stdin")
		minLookup  = fs.Float64("min-lookup-speedup", 1.3, "with -lookup-json, minimum required tuned-pipeline speedup over exact-bucket")
		qJSON      = fs.String("quality-json", "", "gate a cache-quality (label-drift) report file instead of reading benchmarks from stdin")
		minRecov   = fs.Float64("min-accuracy-recovery", 0.95, "with -quality-json, minimum protected tail accuracy as a fraction of the no-drift baseline")
		minSavings = fs.Float64("min-savings-retention", 0.6, "with -quality-json, minimum protected latency savings as a fraction of the no-drift baseline")
		p2pJSON    = fs.String("p2p-json", "", "gate a P2P wire-protocol report file instead of reading benchmarks from stdin")
		minBytes   = fs.Float64("min-bytes-reduction", 4.0, "with -p2p-json, minimum required bytes/frame reduction of the compact protocol at the most constrained bandwidth")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *p2pJSON != "" {
		return checkP2P(*p2pJSON, *minBytes, out)
	}
	if *tputJSON != "" {
		return checkThroughput(*tputJSON, *minSpeedup, out)
	}
	if *olJSON != "" {
		return checkOverload(*olJSON, *minRetain, out)
	}
	if *luJSON != "" {
		return checkLookup(*luJSON, *minLookup, out)
	}
	if *qJSON != "" {
		return checkQuality(*qJSON, *minRecov, *minSavings, out)
	}
	results, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark lines on stdin")
	}
	if *jsonPath != "" {
		blob, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	for _, r := range results {
		fmt.Fprintf(out, "%-48s %12.1f ns/op %8.0f allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
	}
	return checkBudgets(*budgets, results)
}

// parseBench extracts benchmark result lines from `go test -bench`
// output. Lines look like:
//
//	BenchmarkName-8   500000   2100 ns/op   16 B/op   1 allocs/op
func parseBench(in io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "BenchmarkFoo 	--- FAIL"
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			// Strip the -GOMAXPROCS suffix.
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		r := Result{Name: strings.TrimPrefix(name, "Benchmark"), Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
				r.HasMem = true
			case "allocs/op":
				r.AllocsPerOp = v
				r.HasMem = true
			}
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// checkBudgets enforces Name=maxAllocs gates against results.
func checkBudgets(spec string, results []Result) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	var failures []string
	for _, gate := range strings.Split(spec, ",") {
		gate = strings.TrimSpace(gate)
		if gate == "" {
			continue
		}
		name, limitStr, ok := strings.Cut(gate, "=")
		if !ok {
			return fmt.Errorf("bad budget %q (want Name=maxAllocs)", gate)
		}
		limit, err := strconv.ParseFloat(limitStr, 64)
		if err != nil {
			return fmt.Errorf("bad budget limit %q: %v", gate, err)
		}
		matched := false
		for _, r := range results {
			if !strings.Contains(r.Name, name) {
				continue
			}
			matched = true
			if !r.HasMem {
				failures = append(failures,
					fmt.Sprintf("%s: no allocs/op column (run with -benchmem)", r.Name))
				continue
			}
			if r.AllocsPerOp > limit {
				failures = append(failures,
					fmt.Sprintf("%s: %.0f allocs/op exceeds budget %.0f", r.Name, r.AllocsPerOp, limit))
			}
		}
		if !matched {
			failures = append(failures, fmt.Sprintf("budget %q matched no benchmark", name))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("allocation budget violations:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// throughputReport mirrors the fields of eval.ThroughputReport this
// gate needs (benchgate stays stdlib-only, so it does not import eval).
type throughputReport struct {
	Streams int `json:"streams"`
	Frames  int `json:"frames_per_stream"`
	Results []struct {
		Mode string  `json:"mode"`
		FPS  float64 `json:"fps"`
	} `json:"results"`
	Speedup float64 `json:"speedup"`
}

// checkThroughput enforces the serving-scale regression gate on a
// report written by `approxbench -throughput`.
func checkThroughput(path string, minSpeedup float64, out io.Writer) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep throughputReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if len(rep.Results) == 0 {
		return fmt.Errorf("%s: no results", path)
	}
	for _, r := range rep.Results {
		fmt.Fprintf(out, "%-24s %10.1f fps\n", r.Mode, r.FPS)
	}
	fmt.Fprintf(out, "speedup %.2fx at %d streams (gate: >= %.2fx)\n",
		rep.Speedup, rep.Streams, minSpeedup)
	if rep.Speedup < minSpeedup {
		return fmt.Errorf("throughput speedup %.2fx below required %.2fx", rep.Speedup, minSpeedup)
	}
	return nil
}

// overloadReport mirrors the fields of eval.OverloadReport this gate
// needs (benchgate stays stdlib-only, so it does not import eval).
type overloadReport struct {
	Sessions    int     `json:"sessions"`
	CapacityRPS float64 `json:"capacity_rps"`
	Points      []struct {
		Mode       string  `json:"mode"`
		Load       float64 `json:"load"`
		GoodputRPS float64 `json:"goodput_rps"`
		P99MS      float64 `json:"p99_ms"`
	} `json:"points"`
	PeakGoodput  float64 `json:"peak_goodput_rps"`
	GoodputAtMax float64 `json:"goodput_at_max_rps"`
	Retention    float64 `json:"retention"`
}

// checkOverload enforces the overload-resilience regression gate on a
// report written by `approxbench -overload`.
func checkOverload(path string, minRetention float64, out io.Writer) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep overloadReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if len(rep.Points) == 0 {
		return fmt.Errorf("%s: no points", path)
	}
	for _, p := range rep.Points {
		fmt.Fprintf(out, "%-12s %4gx %10.1f goodput/s %10.1f p99 ms\n",
			p.Mode, p.Load, p.GoodputRPS, p.P99MS)
	}
	fmt.Fprintf(out, "goodput retention %.2f at %d sessions (gate: >= %.2f)\n",
		rep.Retention, rep.Sessions, minRetention)
	if rep.Retention < minRetention {
		return fmt.Errorf("goodput retention %.2f below required %.2f (peak %.1f/s, at max load %.1f/s)",
			rep.Retention, minRetention, rep.PeakGoodput, rep.GoodputAtMax)
	}
	return nil
}

// lookupReport mirrors the fields of eval.LookupReport this gate needs
// (benchgate stays stdlib-only, so it does not import eval).
type lookupReport struct {
	Entries int `json:"entries"`
	Queries int `json:"queries"`
	Results []struct {
		Name        string  `json:"name"`
		Tables      int     `json:"tables"`
		Probes      int     `json:"probes"`
		NsPerOp     float64 `json:"ns_per_op"`
		Recall      float64 `json:"recall"`
		AllocsPerOp float64 `json:"allocs_per_op"`
	} `json:"results"`
	Speedup     float64 `json:"speedup"`
	RecallBase  float64 `json:"recall_base"`
	RecallTuned float64 `json:"recall_tuned"`
}

// checkLookup enforces the lookup-pipeline regression gate on a report
// written by `approxbench -hitheavy`: the tuned pipeline must be
// faster by at least minSpeedup, at equal-or-better recall, with zero
// warm-path allocations in every configuration.
func checkLookup(path string, minSpeedup float64, out io.Writer) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep lookupReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if len(rep.Results) == 0 {
		return fmt.Errorf("%s: no results", path)
	}
	for _, r := range rep.Results {
		fmt.Fprintf(out, "%-24s tables=%d probes=%d %10.0f ns/op  recall=%.3f  allocs=%.0f\n",
			r.Name, r.Tables, r.Probes, r.NsPerOp, r.Recall, r.AllocsPerOp)
		if r.AllocsPerOp != 0 {
			return fmt.Errorf("%s: %.0f warm-path allocs/op, budget is 0", r.Name, r.AllocsPerOp)
		}
	}
	fmt.Fprintf(out, "lookup speedup %.2fx at recall %.3f vs %.3f over %d entries (gate: >= %.2fx, recall >= base)\n",
		rep.Speedup, rep.RecallTuned, rep.RecallBase, rep.Entries, minSpeedup)
	if rep.Speedup < minSpeedup {
		return fmt.Errorf("lookup speedup %.2fx below required %.2fx", rep.Speedup, minSpeedup)
	}
	if rep.RecallTuned < rep.RecallBase {
		return fmt.Errorf("tuned recall %.3f below exact-bucket recall %.3f", rep.RecallTuned, rep.RecallBase)
	}
	return nil
}

// p2pReport mirrors the fields of eval.P2PReport this gate needs
// (benchgate stays stdlib-only, so it does not import eval).
type p2pReport struct {
	Nodes    int `json:"nodes"`
	Sessions int `json:"sessions"`
	Frames   int `json:"frames"`
	Points   []struct {
		BandwidthMBps float64 `json:"bandwidth_mbps"`
		Legacy        p2pMode `json:"legacy"`
		Compact       p2pMode `json:"compact"`
		Reduction     float64 `json:"bytes_reduction"`
	} `json:"points"`
	ConstrainedMBps float64 `json:"constrained_mbps"`
	BytesReduction  float64 `json:"bytes_reduction"`
	HitLegacy       float64 `json:"hit_legacy"`
	HitCompact      float64 `json:"hit_compact"`
}

type p2pMode struct {
	Mode          string  `json:"mode"`
	BytesPerFrame float64 `json:"bytes_per_frame"`
	PeerHitRate   float64 `json:"peer_hit_rate"`
	MeanLatencyMS float64 `json:"mean_latency_ms"`
}

// checkP2P enforces the wire-protocol regression gate on a report
// written by `approxbench -p2p`: the compact protocol must cut
// bytes/frame by at least minReduction at the most constrained link,
// at equal-or-better peer hit rate.
func checkP2P(path string, minReduction float64, out io.Writer) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep p2pReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if len(rep.Points) == 0 {
		return fmt.Errorf("%s: no points", path)
	}
	for _, p := range rep.Points {
		for _, m := range []p2pMode{p.Legacy, p.Compact} {
			fmt.Fprintf(out, "%6.2f MB/s %-11s %10.1f B/frame  hit=%.3f  mean=%.2f ms\n",
				p.BandwidthMBps, m.Mode, m.BytesPerFrame, m.PeerHitRate, m.MeanLatencyMS)
		}
		if m := p.Compact; m.BytesPerFrame <= 0 {
			return fmt.Errorf("%.2f MB/s: non-positive compact bytes/frame %.1f",
				p.BandwidthMBps, m.BytesPerFrame)
		}
	}
	fmt.Fprintf(out, "bytes/frame reduction %.1fx at %.2f MB/s (gate: >= %.1fx), hit rate %.3f -> %.3f\n",
		rep.BytesReduction, rep.ConstrainedMBps, minReduction, rep.HitLegacy, rep.HitCompact)
	if rep.BytesReduction < minReduction {
		return fmt.Errorf("bytes/frame reduction %.1fx below required %.1fx", rep.BytesReduction, minReduction)
	}
	if rep.HitCompact < rep.HitLegacy {
		return fmt.Errorf("compact peer hit rate %.3f below legacy %.3f — compression must not cost hits",
			rep.HitCompact, rep.HitLegacy)
	}
	return nil
}

// qualityReport mirrors the fields of eval.QualityReport this gate
// needs (benchgate stays stdlib-only, so it does not import eval).
type qualityReport struct {
	Frames     int `json:"frames"`
	DriftFrame int `json:"drift_frame"`
	Runs       []struct {
		Name           string  `json:"name"`
		TailAccuracy   float64 `json:"tail_accuracy"`
		LatencySavings float64 `json:"latency_savings"`
		Audits         int     `json:"audits"`
		AuditRefutes   int     `json:"audit_refutes"`
		Quarantines    int     `json:"quarantines"`
	} `json:"runs"`
	AccuracyRecovery    float64 `json:"accuracy_recovery"`
	SavingsRetention    float64 `json:"savings_retention"`
	UnprotectedAccuracy float64 `json:"unprotected_accuracy"`
}

// checkQuality enforces the cache-quality regression gate on a report
// written by `approxbench -drift`: under injected label drift the
// self-healing node must recover near-baseline accuracy without giving
// the cache's latency advantage back.
func checkQuality(path string, minRecovery, minRetention float64, out io.Writer) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep qualityReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if len(rep.Runs) == 0 {
		return fmt.Errorf("%s: no runs", path)
	}
	audited := false
	for _, r := range rep.Runs {
		fmt.Fprintf(out, "%-12s tail-acc=%.3f savings=%.3f audits=%d refutes=%d quar=%d\n",
			r.Name, r.TailAccuracy, r.LatencySavings, r.Audits, r.AuditRefutes, r.Quarantines)
		if r.Audits > 0 {
			audited = true
		}
	}
	fmt.Fprintf(out, "accuracy recovery %.3f (gate: >= %.2f), savings retention %.3f (gate: >= %.2f) over %d frames\n",
		rep.AccuracyRecovery, minRecovery, rep.SavingsRetention, minRetention, rep.Frames)
	if !audited {
		return fmt.Errorf("no run performed any shadow audits — quality layer did not engage")
	}
	if rep.AccuracyRecovery < minRecovery {
		return fmt.Errorf("accuracy recovery %.3f below required %.2f (unprotected contrast %.3f)",
			rep.AccuracyRecovery, minRecovery, rep.UnprotectedAccuracy)
	}
	if rep.SavingsRetention < minRetention {
		return fmt.Errorf("savings retention %.3f below required %.2f", rep.SavingsRetention, minRetention)
	}
	return nil
}
