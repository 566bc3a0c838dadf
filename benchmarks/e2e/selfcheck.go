package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// benchmarkFile is the BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// The metrics of an end-to-end and of a traced run that depend on the
// inputs alone. On the single-goroutine workloads they must repeat
// exactly for a seed and change with the seed; on the pool the batch
// composition, and with it every one of them, depends on scheduling.
var (
	deterministicEndToEnd = []string{"sim_mean_ms", "sim_latency_reduction", "accuracy", "energy_mj_per_frame"}
	deterministicTraced   = []string{"wire_bytes_per_frame", "core.hit_rate", "imu.served_share",
		"video.served_share", "cachestore.local_served_share", "p2p.peer_served_share"}
)

// runSelfcheck runs two sets, A and B, of n end-to-end runs of this
// very binary per workload, each run in a process of its own as the
// acceptance runs are. Run i of both sets uses seed cfg.seed+i, so a
// pair differs by the host alone, and the sets alternate which goes
// first so that drift of the host hits both. Per end-to-end metric it
// prints both medians and their shift against the bound in
// BENCHMARK.json, the largest difference within a pair (repeatability
// on identical inputs) and the spread across the n seeds (interquartile
// range over median, which the acceptance runs hold to the bound). It
// fails when a shift or a spread exceeds the bound, when a
// deterministic metric differs at all within a pair, or when one does
// not change with the seed; two traced runs on cfg.seed must agree on
// the traced run's deterministic metrics too.
func runSelfcheck(cfg config, n int, w io.Writer) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck needs the repository root as working directory: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadNames()
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	child := func(name string, seed int64, trace int) (map[string]float64, error) {
		args := []string{
			"-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(cfg.seconds), "-trace", strconv.Itoa(trace),
		}
		if cfg.frames > 0 {
			args = append(args, "-frames", strconv.Itoa(cfg.frames))
		}
		if cfg.passes > 0 {
			args = append(args, "-passes", strconv.Itoa(cfg.passes))
		}
		return runChild(self, args)
	}
	failed := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(w, "   FAIL: "+format+"\n", args...)
		failed++
	}
	for _, name := range names {
		spec, ok := workloadByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		serial := spec.kind != kindPool
		var sets [2][]map[string]float64
		for i := 0; i < n; i++ {
			for k := 0; k < 2; k++ {
				set := (i + k) % 2
				m, err := child(name, cfg.seed+int64(i), 0)
				if err != nil {
					return fmt.Errorf("%s seed %d of set %c: %w", name, cfg.seed+int64(i), 'A'+set, err)
				}
				sets[set] = append(sets[set], m)
			}
		}
		fmt.Fprintf(w, "== %s: 2 sets x %d runs, seeds %d..%d in both, %d s each\n",
			name, n, cfg.seed, cfg.seed+int64(n)-1, cfg.seconds)
		fmt.Fprintf(w, "   %-24s %12s %12s %8s %8s | %9s %9s | %s\n",
			"metric", "median A", "median B", "shift", "bound", "pair max", "seeds iqr", "verdict")
		for _, bm := range bf.EndToEnd {
			a, b := column(sets[0], bm.Name), column(sets[1], bm.Name)
			ma, mb := median(a), median(b)
			shift := math.Abs(ratio(mb-ma, ma))
			pairMax := 0.0
			for i := range a {
				pairMax = math.Max(pairMax, math.Abs(ratio(b[i]-a[i], a[i])))
			}
			seeds := math.Max(spread(a), spread(b))
			verdict := "ok"
			switch {
			case shift > bm.Bound:
				verdict = "FAIL: medians differ by more than the bound"
				failed++
			case seeds > bm.Bound && bm.Name != "setup_s":
				verdict = "FAIL: spread across seeds exceeds the bound"
				failed++
			case seeds > bm.Bound/3 && bm.Name != "setup_s":
				verdict = "ok (spread across seeds above a third of the bound)"
			}
			fmt.Fprintf(w, "   %-24s %12.4f %12.4f %7.2f%% %7.2f%% | %8.2f%% %8.2f%% | %s\n",
				bm.Name, ma, mb, 100*shift, 100*bm.Bound, 100*pairMax, 100*seeds, verdict)
		}
		if !serial {
			continue
		}
		before := failed
		for _, key := range deterministicEndToEnd {
			a, b := column(sets[0], key), column(sets[1], key)
			if !slices.Equal(a, b) {
				fail("%s does not repeat exactly for a seed: %v against %v", key, a, b)
			}
			if n > 1 && slices.Min(a) == slices.Max(a) {
				fail("%s does not change with the seed: %v", key, a)
			}
		}
		t0, err := child(name, cfg.seed, 1)
		if err != nil {
			return fmt.Errorf("%s traced: %w", name, err)
		}
		t1, err := child(name, cfg.seed, 1)
		if err != nil {
			return fmt.Errorf("%s traced: %w", name, err)
		}
		for _, key := range deterministicTraced {
			if t0[key] != t1[key] {
				fail("traced %s does not repeat exactly for seed %d: %v against %v", key, cfg.seed, t0[key], t1[key])
			}
		}
		if failed == before {
			fmt.Fprintf(w, "   deterministic metrics: identical within every pair, different across seeds; two traced runs agree\n")
		}
	}
	if failed > 0 {
		return fmt.Errorf("selfcheck: %d check(s) failed", failed)
	}
	return nil
}

// runChild runs one benchmark process and returns the metric values of
// its contract line.
func runChild(binary string, args []string) (map[string]float64, error) {
	cmd := exec.Command(binary, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line struct {
		Correct bool                   `json:"correct"`
		Metrics map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("parse result line: %w", err)
	}
	if !line.Correct {
		return nil, fmt.Errorf("run reported correct=false\n%s", stderr.String())
	}
	out := make(map[string]float64, len(line.Metrics))
	for k, v := range line.Metrics {
		out[k] = v.Value
	}
	return out, nil
}
