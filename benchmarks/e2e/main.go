// Command e2e is the repository's end-to-end benchmark: five workloads
// drive the real recognition pipeline (core.Engine, core.Pool and
// everything under them) on a virtual clock, so simulated latency is
// charged instantly and the wall clock measures the pipeline's own
// compute. An untraced run reports the end-to-end metrics; a traced
// run (-trace 1) attributes every frame's wall time layer by layer.
// See ../README.md.
//
//	bash benchmarks/bench.sh -workload photo-lookup -seed 1 -seconds 10 -trace 0
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// accuracyFloor is how far below the no-cache accuracy a workload's
// accuracy may fall before the run counts as incorrect. Reuse errors
// are correlated (one wrong label inherited by a whole stationary
// stretch), so the gap has a long tail: over seeds 1-150 it reached
// -0.060 on device-video and -0.032 on peer-mesh, with 4 of 150
// device-video seeds beyond -0.03. The check must hold on every seed,
// so the floor sits well clear of that tail.
const accuracyFloor = 0.10

// setupRepeats is how many times an end-to-end run generates its
// inputs, spread evenly over the run so that one busy spell of the host
// cannot slow all of them; setup_s takes the median, as the benchmark
// contract asks ("set up several times in a run and report the median").
const setupRepeats = 5

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	frames   int
	passes   int
	out      string
	spans    string
}

func main() {
	var cfg config
	var selfcheck int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed all inputs are generated from")
	flag.IntVar(&cfg.seconds, "seconds", 10, "run length: sets the fixed pass count (passes scale with it, never with the clock)")
	flag.IntVar(&cfg.trace, "trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end run")
	flag.IntVar(&cfg.frames, "frames", 0, "override the timed frames per stream (warm-up scales with it)")
	flag.IntVar(&cfg.passes, "passes", 0, "override the pass count (minimum 2; the first is discarded)")
	flag.StringVar(&cfg.out, "out", "", "also write the full run record (metrics, host, per-pass values) to this file")
	flag.StringVar(&cfg.spans, "spans", "", "traced run: write the last pass's spans to this file as JSON lines")
	flag.IntVar(&selfcheck, "selfcheck", 0, "run two alternating sets of N end-to-end runs of this binary per workload, both on seeds seed..seed+N-1, and compare them with each other and with the bounds in BENCHMARK.json")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if selfcheck > 0 {
		if err := runSelfcheck(cfg, selfcheck, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	rec, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	rec.printTable(os.Stderr)
	if cfg.out != "" {
		if err := rec.writeFile(cfg.out); err != nil {
			fatal(err)
		}
	}
	// The contract line: last line of standard output.
	line, err := json.Marshal(rec.contractLine())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2e:", err)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// passCount maps -seconds to the fixed number of passes.
func passCount(spec workloadSpec, seconds int) int {
	n := int(math.Round(spec.passesPer10s * float64(seconds) / 10))
	if n < 2 {
		n = 2
	}
	return n
}

// poolSessions is the pool workload's concurrency: min(nproc, 4).
func poolSessions() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the full outcome of one run: what -out writes and the
// table prints. The contract line is a projection of it.
type record struct {
	Benchmark string `json:"benchmark"`
	Workload  string `json:"workload"`
	Why       string `json:"why"`
	Seed      int64  `json:"seed"`
	Traced    bool   `json:"traced"`
	// Passes counts measured passes (traced run: pairs of one untraced
	// and one traced pass); the first pass or pair is discarded.
	Passes         int                    `json:"passes"`
	FramesPerPass  int                    `json:"frames_per_pass"`
	Clients        int                    `json:"clients"`
	Attempted      int                    `json:"attempted"`
	Succeeded      int                    `json:"succeeded"`
	Failed         int                    `json:"failed"`
	Correct        bool                   `json:"correct"`
	NoCacheMeanMS  float64                `json:"no_cache_sim_mean_ms"`
	NoCacheAcc     float64                `json:"no_cache_accuracy"`
	Violations     []string               `json:"violations"`
	Notes          []string               `json:"notes,omitempty"`
	Claim          *string                `json:"claim"`
	Host           hostInfo               `json:"host"`
	Metrics        map[string]metricValue `json:"metrics"`
	Sources        map[string]int         `json:"frames_by_source"`
	PerPass        map[string][]float64   `json:"per_pass"`
	ElapsedSeconds float64                `json:"elapsed_s"`

	defs     []metricDef
	lastPass *passStats
}

// run executes one benchmark run.
func run(cfg config) (*record, error) {
	started := time.Now()
	spec, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds < 1 || cfg.frames < 0 || cfg.trace < 0 || cfg.trace > 1 {
		return nil, fmt.Errorf("bad -seconds, -frames or -trace")
	}
	passes := passCount(spec, cfg.seconds)
	if cfg.passes != 0 {
		if cfg.passes < 2 {
			return nil, fmt.Errorf("-passes must be at least 2: the first pass is warm-up")
		}
		passes = cfg.passes
	}
	traced := cfg.trace == 1

	// Set-up: everything the program under test will receive is
	// generated here, from the seed alone.
	timedGenerate := func() (*inputs, float64, error) {
		runtime.GC()
		t0 := time.Now()
		in, err := generate(spec, cfg.seed, cfg.frames)
		if err != nil {
			return nil, 0, fmt.Errorf("generate inputs: %w", err)
		}
		return in, time.Since(t0).Seconds(), nil
	}
	in, genSeconds, err := timedGenerate()
	if err != nil {
		return nil, err
	}

	rec := &record{
		Benchmark:     "approxcache/benchmarks/e2e",
		Workload:      spec.name,
		Why:           spec.why,
		Seed:          cfg.seed,
		Traced:        traced,
		FramesPerPass: in.timedFrames(),
		Clients:       len(in.scenarios[0].streams),
		NoCacheMeanMS: in.noCacheMeanMS,
		NoCacheAcc:    in.noCacheAccuracy,
		Host:          host(),
		Metrics:       make(map[string]metricValue),
		Sources:       make(map[string]int),
		PerPass:       make(map[string][]float64),
	}
	if traced {
		// A third as many pairs as an end-to-end run has passes.
		pairs := max(2, passes/3)
		err = rec.runTraced(newRunner(in, true), pairs, cfg.spans)
	} else {
		regenerate := func() (float64, error) {
			_, s, err := timedGenerate()
			return s, err
		}
		err = rec.runEndToEnd(newRunner(in, false), passes, genSeconds, regenerate)
	}
	if err != nil {
		return nil, err
	}
	if err := checkFacade(in); err != nil {
		rec.violate("hand-assembled system diverges from the public constructors: %v", err)
	}
	rec.Correct = len(rec.Violations) == 0
	rec.ElapsedSeconds = time.Since(started).Seconds()
	return rec, nil
}

// runEndToEnd measures the end-to-end metrics over passes untraced
// passes, the first of which is warm-up. genSeconds is how long
// generating the inputs took; regenerate times it again.
func (rec *record) runEndToEnd(r *runner, passes int, genSeconds float64, regenerate func() (float64, error)) error {
	rec.defs = endToEnd
	rec.Passes = passes - 1
	serial := r.in.spec.kind != kindPool
	var perPass []map[string]float64
	var setupS []float64
	var prev *passStats
	var heapKB float64
	genS := []float64{genSeconds}
	every := max(1, passes/setupRepeats)
	for p := 0; p < passes; p++ {
		if p > 0 && p%every == 0 && len(genS) < setupRepeats {
			s, err := regenerate()
			if err != nil {
				return err
			}
			genS = append(genS, s)
		}
		runtime.GC() // the previous pass's caches are garbage: collect them outside the timing
		st, kb, err := r.pass(passOpts{heap: p == passes-1})
		if err != nil {
			return err
		}
		rec.observe(st)
		heapKB = kb
		if p > 0 {
			perPass = append(perPass, endToEndOf(st, r.in))
			setupS = append(setupS, float64(st.setupNS)/1e9)
			if serial && !samePass(prev, st) {
				rec.violate("pass %d served different per-source counts or simulated time than pass %d on identical inputs", p, p-1)
			}
		}
		prev = st
	}
	// Every metric is the median over the measured passes of the pass's
	// own value; the deterministic outputs are the same in every pass
	// (checked above on the single-goroutine workloads), so their median
	// is any pass's. frames_per_s alone is the fastest pass: one whole
	// pass's timed frames over its timed wall clock, so whatever that
	// pass paid (allocator slow paths, cache misses, a GC cycle if one
	// fell in it) is in the number, and a pass really ran at this speed.
	// What a shared host adds to a pass is only ever added, and on the
	// reference host it comes in spells of seconds to minutes during
	// which every pass runs up to 1.6x slower: across ten runs the median
	// pass then spreads 24-33%, beyond the largest bound the benchmark
	// contract allows (README, "Which pass").
	m := medianByKey(perPass)
	m["frames_per_s"] = slices.Max(column(perPass, "frames_per_s"))
	// Set-up is generating the inputs plus building the fresh system
	// and warming it; each is repeated, and each takes its median.
	m["setup_s"] = median(genS) + median(setupS)
	m["session_heap_kb"] = heapKB
	rec.checkAccuracy(m["accuracy"], !serial)
	rec.PerPass["setup_generate_s"] = genS
	rec.PerPass["setup_build_warm_s"] = setupS
	return rec.setMetrics(m, perPass)
}

// fastest returns the pass with the shortest timed wall clock.
func fastest(passes []*passStats) *passStats {
	return slices.MinFunc(passes, func(a, b *passStats) int { return cmp.Compare(a.wallNS, b.wallNS) })
}

// runTraced measures the per-layer metrics over pairs of one untraced
// and one traced pass — a third as many pairs as an end-to-end run has
// passes — the first pair being warm-up. The untraced pass of a pair
// gives the reference cost and the allocation counts; the two must
// serve exactly the same results, which proves the wrappers
// transparent.
func (rec *record) runTraced(r *runner, pairs int, spansPath string) error {
	rec.defs = perLayer
	rec.Passes = pairs - 1
	serial := r.in.spec.kind != kindPool
	var untraced, traced []*passStats
	var perPass []map[string]float64
	for p := 0; p < pairs; p++ {
		runtime.GC()
		un, _, err := r.pass(passOpts{allocs: true})
		if err != nil {
			return err
		}
		runtime.GC()
		tr, _, err := r.pass(passOpts{traced: true})
		if err != nil {
			return err
		}
		rec.observe(un)
		rec.observe(tr)
		if serial && !samePass(un, tr) {
			rec.violate("traced pass %d differs from the untraced pass (per-source counts, simulated time, accuracy or wire bytes): the wrappers are not transparent", p)
		}
		if p == 0 {
			continue
		}
		tr.agg = aggregate(r.spans)
		perPass = append(perPass, perLayerOf(tr, un, !serial))
		untraced, traced = append(untraced, un), append(traced, tr)
	}
	for _, tr := range traced {
		if serial && tr.spans != traced[0].spans {
			rec.violate("traced passes recorded different numbers of spans on identical inputs")
			break
		}
	}
	// The table is the fastest traced pass's, held against the fastest
	// untraced pass: the passes frames_per_s would pick.
	m := perLayerOf(fastest(traced), fastest(untraced), !serial)
	// The latency percentiles are end-to-end quantities, not rows of the
	// table: the median over pairs of each untraced pass's own percentile.
	for _, name := range []string{"frame_p50_us", "frame_p99_us"} {
		m[name] = median(column(perPass, name))
	}
	rec.checkAccuracy(endToEndOf(rec.lastPass, r.in)["accuracy"], !serial)
	if sum := m["trace.table_sum_pct"]; serial && (sum < 85 || sum > 115) {
		// Not an output error: on a preempted host the traced and the
		// untraced passes can differ this much. The acceptance criterion
		// is judged on the recorded runs.
		rec.Notes = append(rec.Notes, fmt.Sprintf(
			"per-layer table sums to %.1f%% of the untraced per-frame cost (expected within 15%%)", sum))
	}
	if spansPath != "" {
		if err := writeSpans(spansPath, r.spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return rec.setMetrics(m, perPass)
}

// samePass reports whether two passes over identical inputs produced
// identical deterministic outputs.
func samePass(a, b *passStats) bool {
	if a.simNS != b.simNS || a.correct != b.correct || a.failed != b.failed ||
		a.wireBytes != b.wireBytes || a.energyMJ != b.energyMJ {
		return false
	}
	for i := range a.bySource {
		if a.bySource[i] != b.bySource[i] {
			return false
		}
	}
	return true
}

func (rec *record) violate(format string, args ...any) {
	rec.Violations = append(rec.Violations, fmt.Sprintf(format, args...))
}

// observe books a pass's frames (every pass counts, warm-up included)
// and its violations.
func (rec *record) observe(st *passStats) {
	rec.Attempted += st.frames
	rec.Failed += st.failed
	rec.Succeeded += st.succeeded()
	rec.Violations = append(rec.Violations, st.violations...)
	for i, s := range sources {
		rec.Sources[string(s)] = st.bySource[i] // last pass wins; passes agree
	}
	rec.lastPass = st
}

func (rec *record) checkAccuracy(acc float64, concurrent bool) {
	if acc < rec.NoCacheAcc-accuracyFloor {
		rec.violate("accuracy %.4f is more than %.2f below the no-cache accuracy %.4f", acc, accuracyFloor, rec.NoCacheAcc)
	}
	if rec.Failed > 0 && !concurrent {
		rec.violate("%d of %d frames failed on a workload chosen so that none does", rec.Failed, rec.Attempted)
	}
}

// setMetrics stores the run's metrics after checking them against the
// declared list, and keeps the per-pass values for the record.
func (rec *record) setMetrics(m map[string]float64, perPass []map[string]float64) error {
	if err := checkDefs(rec.defs, m); err != nil {
		return err
	}
	for _, d := range rec.defs {
		rec.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
		vals := make([]float64, 0, len(perPass))
		for _, p := range perPass {
			if v, ok := p[d.name]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) > 0 {
			rec.PerPass[d.name] = vals
		}
	}
	return nil
}

// contractLine is the object the benchmark contract wants as the last
// line of standard output.
func (rec *record) contractLine() map[string]any {
	return map[string]any{
		"correct":   rec.Correct,
		"attempted": rec.Attempted,
		"failed":    rec.Failed,
		"metrics":   rec.Metrics,
	}
}

func (rec *record) writeFile(path string) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printTable prints every metric by name with its unit, under a header
// that stamps the run with its host.
func (rec *record) printTable(w io.Writer) {
	mode := "end-to-end"
	if rec.Traced {
		mode = "traced"
	}
	h := rec.Host
	fmt.Fprintf(w, "== %s  %s  seed %d  passes %d (+1 warm-up)  %d frames/pass  %d client(s), closed loop\n",
		rec.Workload, mode, rec.Seed, rec.Passes, rec.FramesPerPass, rec.Clients)
	fmt.Fprintf(w, "   host: %s | nproc %d GOMAXPROCS %d | %s | commit %s\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit)
	fmt.Fprintf(w, "   frames attempted %d succeeded %d failed %d | no-cache: sim mean %.2f ms, accuracy %.4f | %.1f s\n",
		rec.Attempted, rec.Succeeded, rec.Failed, rec.NoCacheMeanMS, rec.NoCacheAcc, rec.ElapsedSeconds)
	var by []string
	for _, s := range sources {
		if n := rec.Sources[string(s)]; n > 0 {
			by = append(by, fmt.Sprintf("%s %d", s, n))
		}
	}
	fmt.Fprintf(w, "   served by: %s\n", strings.Join(by, ", "))
	for _, d := range rec.defs {
		v := rec.Metrics[d.name]
		extra := ""
		if vals := rec.PerPass[d.name]; len(vals) > 1 {
			extra = fmt.Sprintf("  [passes min %.4g max %.4g]", slices.Min(vals), slices.Max(vals))
		}
		fmt.Fprintf(w, "   %-36s %14.4f %-6s%s\n", d.name, v.Value, v.Unit, extra)
	}
	for _, v := range rec.Violations {
		fmt.Fprintf(w, "   VIOLATION: %s\n", v)
	}
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "   NOTE: %s\n", n)
	}
}
