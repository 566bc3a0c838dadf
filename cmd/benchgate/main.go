// Command benchgate judges the repository's benchmark records. Every
// threshold lives in this file: the gate rows below for the reports
// `approxbench -exp E2x -json` writes, and the allocation budgets for
// the hot-path `go test -bench` results.
//
// Usage:
//
//	benchgate FILE...
//
// gates each file by its base name, so the checked-in root
// BENCH_*.json and a re-measurement in a temp directory go through the
// same rows. Every row of every file is evaluated and printed; the exit
// status is non-zero if any failed, and the error names each failed
// row. A row whose path is missing, an array with no elements, a file
// that does not parse and a file name with no rows are all failures —
// a report that lost a field must not pass.
//
//	go test -run '^$' -bench HotPath -benchmem ./internal/... | \
//	    benchgate -json BENCH_hotpath.json
//
// With no file arguments, benchgate reads `go test -bench` output on
// stdin, optionally records it (with a host stamp) as -json, and
// enforces the allocation budgets, so a PR that quietly reintroduces
// per-query allocation fails `make check` instead of shipping.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"approxcache/internal/benchfile"
)

// row is one gate: in the file named file, every number path selects
// must stand in relation cmp to want — or, when wantPath is set, to the
// one number wantPath selects in the same file. Paths are dotted member
// names; name[*] selects every element of an array, name[N] one.
type row struct {
	file     string
	path     string
	cmp      string // ">=", ">" or "=="
	want     float64
	wantPath string
	why      string
}

// rows is every report gate `make check` enforces. DESIGN.md's "Gates"
// table lists them beside the experiment that feeds each file.
var rows = []row{
	{file: "BENCH_throughput.json", path: "results[*].fps", cmp: ">", want: 0,
		why: "both variants, unbatched and batched, ran"},
	{file: "BENCH_throughput.json", path: "speedup", cmp: ">=", want: 3.0,
		why: "micro-batched inference must beat the same one-store pool unbatched by this frames/sec factor at 16 streams"},

	{file: "BENCH_overload.json", path: "points[*].offered_rps", cmp: ">", want: 0,
		why: "every load point of the sweep was offered traffic"},
	{file: "BENCH_overload.json", path: "retention", cmp: ">=", want: 0.85,
		why: "with deadlines + admission control on, the node must retain this fraction of its peak goodput at 4x its measured capacity"},

	{file: "BENCH_lookup.json", path: "results[*].allocs_per_op", cmp: "==", want: 0,
		why: "the warm lookup path allocates nothing, flat scan or LSH, at every size"},
	{file: "BENCH_lookup.json", path: "speedup", cmp: ">=", want: 1.3,
		why: "at 1 024 rendered descriptors the shipped 12-bit x 4-table index must beat a flat exact scan by this ns/op factor"},
	{file: "BENCH_lookup.json", path: "results[*].recall", cmp: ">=", want: 0.95,
		why: "every index finds this fraction of the exact neighbors within the vote radius"},

	{file: "BENCH_quality.json", path: "runs[2].audits", cmp: ">", want: 0,
		why: "the protected run (third) performed shadow audits — the quality layer engaged"},
	{file: "BENCH_quality.json", path: "accuracy_recovery", cmp: ">=", want: 0.95,
		why: "under recurring label drift the self-healing node must recover this fraction of the no-drift baseline's tail accuracy"},
	{file: "BENCH_quality.json", path: "savings_retention", cmp: ">=", want: 0.6,
		why: "while retaining this fraction of the baseline's latency savings"},

	{file: "BENCH_p2p.json", path: "points[*].compact.bytes_per_frame", cmp: ">", want: 0,
		why: "the compact protocol put bytes on the wire at every bandwidth"},
	{file: "BENCH_p2p.json", path: "bytes_reduction", cmp: ">=", want: 4.0,
		why: "quantized codec + delta digests + coalescing + gossip batching must keep wire bytes per frame this factor below the deleted float64 protocol's recorded 1163.58 at the most constrained link"},
	{file: "BENCH_p2p.json", path: "hit_compact", cmp: ">=", wantPath: "hit_legacy",
		why: "compression must not cost hits: peer hit rate at or above the float64 protocol's recorded one"},
}

// hotpathFile is the record of the hot-path benchmarks; it is gated by
// hotpathBudgets instead of rows.
const hotpathFile = "BENCH_hotpath.json"

// budget caps a hot-path benchmark's allocs/op. name is matched as a
// substring of the benchmark name, sub-benchmarks included; a budget
// that matches no benchmark is a failure — a silently deleted benchmark
// must not pass the gate.
type budget struct {
	name      string
	maxAllocs float64
}

// hotpathBudgets: NearestInto/NearestWithinInto/ExtractInto/
// ExtractThumbInto/CandidatesInto with a reused buffer stay
// allocation-free, and so do the frame guard's pass (straight-line
// kernel and loop), the kNN vote, the video gate (a keyframe
// scan allocates nothing and a push into a full library recycles the
// evicted buffer) and the inertial gate (a sample into a full window
// takes a ring slot). The store's label read copies nothing; an insert
// into a full store may allocate only what the index's bucket growth
// does (the store itself: nothing). One frame through the whole engine
// allocates nothing when the inertial gate, the video gate or the local
// cache serves it; a miss allocates only the 6 of the watchdog's call
// deadline (goroutine, channel, timer), and the simulated classifier's
// decision allocates nothing at any vocabulary size. One peer query
// over three
// in-process peers (client and services both) may allocate no more than
// the 30 it did before the peer table was one record per peer.
var hotpathBudgets = []budget{
	{"HotPathNearest", 0},
	{"HotPathNearestDescriptors", 0},
	{"HotPathNearestWithinDescriptors", 0},
	{"HotPathExactNearest", 0},
	{"HotPathVote", 0},
	{"HotPathSignature", 0},
	{"HotPathTopK", 0},
	{"HotPathCandidates", 0},
	{"HotPathCheckFrame", 0},
	{"HotPathFusedExtract", 0},
	{"HotPathExtractFromThumb", 0},
	{"HotPathGrid", 0},
	{"HotPathHistogram", 0},
	{"HotPathKeyframeMatch", 0},
	{"HotPathKeyframePush", 0},
	{"HotPathIMUObserve", 0},
	{"HotPathStoreLabel", 0},
	{"HotPathStoreInsertEvict", 4},
	{"HotPathObserveFrame", 0},
	{"HotPathEngineFrame/imu", 0},
	{"HotPathEngineFrame/video", 0},
	{"HotPathEngineFrame/local", 0},
	{"HotPathEngineFrame/dnn", 6},
	{"HotPathClassifierDecide", 0},
	{"HotPathQueryFrame", 30},
}

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

// hotpathRecord is hotpathFile's shape (benchfile.Write adds "host").
type hotpathRecord struct {
	Results []Result `json:"results"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	jsonPath := fs.String("json", "", "with benchmark output on stdin, also record the parsed results (plus a host stamp) in this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return gateFiles(fs.Args(), out)
	}
	results, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark lines on stdin")
	}
	if *jsonPath != "" {
		if err := benchfile.Write(*jsonPath, hotpathRecord{results}); err != nil {
			return err
		}
	}
	for _, r := range results {
		fmt.Fprintf(out, "%-48s %12.1f ns/op %8.0f allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
	}
	return checkBudgets(hotpathBudgets, results)
}

// gateFiles judges every file and reports every failure, not the first.
func gateFiles(paths []string, out io.Writer) error {
	var failed []string
	for _, path := range paths {
		for _, err := range gateFile(path, out) {
			fmt.Fprintf(out, "FAIL  %v\n", err)
			failed = append(failed, err.Error())
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d gate(s) failed:\n  %s", len(failed), strings.Join(failed, "\n  "))
	}
	return nil
}

// gateFile applies to path the gates its base name selects, printing
// each row that holds and returning one error per row that does not.
func gateFile(path string, out io.Writer) []error {
	base := filepath.Base(path)
	fail := func(err error) []error { return []error{fmt.Errorf("%s: %w", base, err)} }
	blob, err := os.ReadFile(path)
	if err != nil {
		return fail(err)
	}
	if base == hotpathFile {
		var rec hotpathRecord
		if err := json.Unmarshal(blob, &rec); err != nil {
			return fail(err)
		}
		if err := checkBudgets(hotpathBudgets, rec.Results); err != nil {
			return fail(err)
		}
		fmt.Fprintf(out, "ok    %s: %d allocation budgets hold over %d benchmarks\n", base, len(hotpathBudgets), len(rec.Results))
		return nil
	}
	var doc any
	if err := json.Unmarshal(blob, &doc); err != nil {
		return fail(err)
	}
	var errs []error
	matched := false
	for _, r := range rows {
		if r.file != base {
			continue
		}
		matched = true
		verdict, err := r.check(doc)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %s: %w — %s", base, r.path, err, r.why))
			continue
		}
		fmt.Fprintf(out, "ok    %s: %s — %s\n", base, verdict, r.why)
	}
	if !matched {
		return fail(fmt.Errorf("no gate rows for this file name"))
	}
	return errs
}

// check evaluates r against a decoded report; verdict renders the
// comparison that held.
func (r row) check(doc any) (verdict string, err error) {
	got, err := resolve(doc, r.path)
	if err != nil {
		return "", err
	}
	want, wantText := r.want, fmt.Sprintf("%g", r.want)
	if r.wantPath != "" {
		w, err := resolve(doc, r.wantPath)
		if err != nil {
			return "", fmt.Errorf("%s: %w", r.wantPath, err)
		}
		if len(w) != 1 {
			return "", fmt.Errorf("%s selects %d values, want one", r.wantPath, len(w))
		}
		want, wantText = w[0], fmt.Sprintf("%s (%g)", r.wantPath, w[0])
	}
	for _, g := range got {
		var holds bool
		switch r.cmp {
		case ">=":
			holds = g >= want
		case ">":
			holds = g > want
		case "==":
			holds = g == want
		default:
			return "", fmt.Errorf("unknown comparator %q", r.cmp)
		}
		if !holds {
			return "", fmt.Errorf("got %.4g, want %s %s", g, r.cmp, wantText)
		}
	}
	shown := fmt.Sprintf("%.4g", got)
	if len(got) == 1 {
		shown = fmt.Sprintf("%.4g", got[0])
	}
	return fmt.Sprintf("%s = %s %s %s", r.path, shown, r.cmp, wantText), nil
}

// resolve returns every number path selects in doc. Nothing is
// defaulted: a missing member, an empty or short array and a non-number
// at the end of the path are errors.
func resolve(doc any, path string) ([]float64, error) {
	cur := []any{doc}
	for _, seg := range strings.Split(path, ".") {
		key, index, indexed := strings.Cut(strings.TrimSuffix(seg, "]"), "[")
		var next []any
		for _, v := range cur {
			obj, ok := v.(map[string]any)
			if !ok {
				return nil, fmt.Errorf("%q: parent is not an object", key)
			}
			child, ok := obj[key]
			if !ok {
				return nil, fmt.Errorf("no member %q", key)
			}
			if !indexed {
				next = append(next, child)
				continue
			}
			arr, ok := child.([]any)
			if !ok {
				return nil, fmt.Errorf("%q is not an array", key)
			}
			if len(arr) == 0 {
				return nil, fmt.Errorf("%q is empty", key)
			}
			if index == "*" {
				next = append(next, arr...)
				continue
			}
			n, err := strconv.Atoi(index)
			if err != nil || n < 0 || n >= len(arr) {
				return nil, fmt.Errorf("%q has no element [%s]", key, index)
			}
			next = append(next, arr[n])
		}
		cur = next
	}
	nums := make([]float64, len(cur))
	for i, v := range cur {
		f, ok := v.(float64)
		if !ok {
			return nil, fmt.Errorf("value %v is not a number", v)
		}
		nums[i] = f
	}
	return nums, nil
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

// checkBudgets enforces budgets against results.
func checkBudgets(budgets []budget, results []Result) error {
	var failures []string
	for _, b := range budgets {
		matched := false
		for _, r := range results {
			if !strings.Contains(r.Name, b.name) {
				continue
			}
			matched = true
			if !r.HasMem {
				failures = append(failures,
					fmt.Sprintf("%s: no allocs/op column (run with -benchmem)", r.Name))
				continue
			}
			if r.AllocsPerOp > b.maxAllocs {
				failures = append(failures,
					fmt.Sprintf("%s: %.0f allocs/op exceeds budget %.0f", r.Name, r.AllocsPerOp, b.maxAllocs))
			}
		}
		if !matched {
			failures = append(failures, fmt.Sprintf("budget %q matched no benchmark", b.name))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("allocation budget violations:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}
