// Command pairstat summarises paired benchmark runs of a change against
// its parent. Usage:
//
//	pairstat BENCHMARK.json RUNS.jsonl
//	pairstat RUNS.txt
//
// With two arguments it reads the end-to-end record scripts/pairs.sh
// writes: one JSON object per run,
//
//	{"side":"parent"|"change","workload":W,"seed":N,"result":<bench.sh's last line>}
//
// It prints the host block (internal/benchfile), then, per workload and
// per end-to-end metric of BENCHMARK.json, both sides' medians and
// interquartile ranges and the change's wins out of the seeds both
// sides ran. Over at least minPairs pairs, a metric reads "gain" or
// "loss" when one side wins at least 9 pairs in 10 and the medians
// differ by more than the parent's IQR: the bar a claimed gain must
// clear.
//
// With one argument it reads Go benchmark output, the record
// scripts/pairs-hot.sh writes (each run after a `side: parent` or
// `side: change` line), and prints per benchmark row the same columns
// for ns/op under the same rule; a row whose median allocs/op rose
// fails.
//
// The simulated metrics (simMetrics) are a function of the seed on
// every workload whose frames run one after another, so there they must
// be identical in every pair; on the concurrent workload the change's
// median must lie inside the parent's min–max. The exit status is
// non-zero when either rule fails or a run was not correct.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"approxcache/internal/benchfile"
)

// simMetrics are the metrics of simulated latency, accuracy and energy.
var simMetrics = []string{"sim_mean_ms", "sim_latency_reduction", "accuracy", "energy_mj_per_frame"}

// minPairs is the fewest pairs a gain or loss is read from.
const minPairs = 10

// concurrent is the workload whose sessions share one node from several
// goroutines, so its simulated metrics move from run to run.
const concurrent = "pool-serve"

type metric struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

type run struct {
	Side     string `json:"side"`
	Workload string `json:"workload"`
	Seed     int    `json:"seed"`
	Result   struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

func main() {
	if len(os.Args) != 2 && len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: pairstat BENCHMARK.json RUNS.jsonl | pairstat RUNS.txt")
		os.Exit(2)
	}
	f, err := os.Open(os.Args[len(os.Args)-1])
	if err != nil {
		fail(err)
	}
	defer f.Close()
	host, _ := json.Marshal(benchfile.CurrentHost()) // a struct of strings and ints
	var ok bool
	if len(os.Args) == 2 {
		rows, err := readBench(f)
		if err != nil {
			fail(err)
		}
		fmt.Printf("host: %s\n", host)
		ok = summariseBench(os.Stdout, rows)
	} else {
		metrics, err := readMetrics(os.Args[1])
		if err != nil {
			fail(err)
		}
		runs, err := readRuns(f)
		if err != nil {
			fail(err)
		}
		fmt.Printf("host: %s\n", host)
		ok = summarise(os.Stdout, metrics, runs)
	}
	if !ok {
		os.Exit(1)
	}
}

// fail reports an input pairstat cannot read.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "pairstat:", err)
	os.Exit(2)
}

func readMetrics(path string) ([]metric, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(body, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return spec.EndToEnd, nil
}

func readRuns(r io.Reader) ([]run, error) {
	var runs []run
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var x run
		if err := json.Unmarshal(sc.Bytes(), &x); err != nil {
			return nil, fmt.Errorf("runs line %d: %w", line, err)
		}
		runs = append(runs, x)
	}
	return runs, sc.Err()
}

// summarise prints the tables and reports whether every run was
// correct and every simulated metric kept its rule.
func summarise(w io.Writer, metrics []metric, runs []run) bool {
	ok := true
	var workloads []string
	bySeed := map[string]map[int][2]*run{} // workload → seed → {parent, change}
	for i := range runs {
		r := &runs[i]
		if !r.Result.Correct || r.Result.Failed > 0 {
			fmt.Fprintf(w, "NOT CORRECT: %s %s seed %d (correct %v, failed %d)\n",
				r.Side, r.Workload, r.Seed, r.Result.Correct, r.Result.Failed)
			ok = false
		}
		if bySeed[r.Workload] == nil {
			bySeed[r.Workload] = map[int][2]*run{}
			workloads = append(workloads, r.Workload)
		}
		p := bySeed[r.Workload][r.Seed]
		p[side(r.Side)] = r
		bySeed[r.Workload][r.Seed] = p
	}
	for _, wl := range workloads {
		var pairs [][2]*run
		for _, p := range bySeed[wl] {
			if p[0] != nil && p[1] != nil {
				pairs = append(pairs, p)
			}
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i][0].Seed < pairs[j][0].Seed })
		fmt.Fprintf(w, "\n%s: %d pairs\n", wl, len(pairs))
		fmt.Fprintf(w, "  %-22s %14s %12s %14s %12s %6s %8s\n", "metric", "parent median", "IQR", "change median", "IQR", "wins", "change")
		for _, m := range metrics {
			var pv, cv []float64
			for _, p := range pairs {
				pv = append(pv, p[0].Result.Metrics[m.Name].Value)
				cv = append(cv, p[1].Result.Metrics[m.Name].Value)
			}
			fmt.Fprintf(w, "  %-22s %s\n", m.Name, compare(m, pv, cv))
		}
		if !simRule(w, wl, pairs) {
			ok = false
		}
	}
	return ok
}

// pairStats are one metric's figures over paired runs: each side's
// median and IQR, the change's wins, and the verdict.
type pairStats struct {
	pm, piqr, cm, ciqr float64
	wins, n            int
	verdict            string // "gain", "loss" or ""
}

// compare pairs pv[i] (the parent's) with cv[i] (the change's). Over at
// least minPairs pairs, the verdict is "gain" or "loss" when one side
// wins at least 9 pairs in 10 and the medians differ by more than the
// parent's IQR.
func compare(m metric, pv, cv []float64) pairStats {
	wins, losses := 0, 0
	for i := range pv {
		switch {
		case better(m, cv[i], pv[i]):
			wins++
		case better(m, pv[i], cv[i]):
			losses++
		}
	}
	s := pairStats{pm: quantile(pv, 0.5), piqr: iqr(pv), cm: quantile(cv, 0.5), ciqr: iqr(cv), wins: wins, n: len(pv)}
	need := int(math.Ceil(0.9 * float64(s.n)))
	apart := math.Abs(s.cm-s.pm) > s.piqr
	switch {
	case s.n < minPairs:
	case wins >= need && apart && better(m, s.cm, s.pm):
		s.verdict = "gain"
	case losses >= need && apart && better(m, s.pm, s.cm):
		s.verdict = "loss"
	}
	return s
}

// String is the figures as one table row's columns.
func (s pairStats) String() string {
	line := fmt.Sprintf("%14.6g %12.4g %14.6g %12.4g %3d/%-2d %+7.1f%% %s",
		s.pm, s.piqr, s.cm, s.ciqr, s.wins, s.n, 100*(s.cm/s.pm-1), s.verdict)
	return strings.TrimRight(line, " ")
}

// simRule checks the simulated metrics of one workload's pairs and
// prints what it found.
func simRule(w io.Writer, wl string, pairs [][2]*run) bool {
	ok := true
	for _, name := range simMetrics {
		if wl == concurrent {
			var pv, cv []float64
			for _, p := range pairs {
				pv = append(pv, p[0].Result.Metrics[name].Value)
				cv = append(cv, p[1].Result.Metrics[name].Value)
			}
			if len(pairs) == 0 {
				continue
			}
			lo, hi, cm := quantile(pv, 0), quantile(pv, 1), quantile(cv, 0.5)
			if cm < lo || cm > hi {
				fmt.Fprintf(w, "  SIM OUT OF RANGE: %s change median %v outside parent [%v, %v]\n", name, cm, lo, hi)
				ok = false
			}
			continue
		}
		var bad []string
		for _, p := range pairs {
			a, b := p[0].Result.Metrics[name].Value, p[1].Result.Metrics[name].Value
			if a != b {
				bad = append(bad, fmt.Sprintf("seed %d: %v → %v", p[0].Seed, a, b))
			}
		}
		if len(bad) > 0 {
			fmt.Fprintf(w, "  SIM MISMATCH: %s differs in %d/%d pairs (%s)\n", name, len(bad), len(pairs), strings.Join(bad, "; "))
			ok = false
		}
	}
	if ok {
		rule := "identical to the last digit in every pair"
		if wl == concurrent {
			rule = "change medians inside the parent's min–max"
		}
		fmt.Fprintf(w, "  sim metrics: %s\n", rule)
	}
	return ok
}

func side(s string) int {
	if s == "change" {
		return 1
	}
	return 0
}

// better reports whether a is strictly better than b for m.
func better(m metric, a, b float64) bool {
	if m.Better == "lower" {
		return a < b
	}
	return a > b
}

// iqr is the interquartile range of xs.
func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

// quantile is the p-quantile of xs, interpolated between order
// statistics (NaN for no values).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
