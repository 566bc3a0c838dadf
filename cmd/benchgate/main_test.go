package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: approxcache/internal/lsh
cpu: Some CPU
BenchmarkHotPathNearest-8      	  487447	      2100.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkHotPathTopK/k=4-8     	 1000000	       900 ns/op	       0 B/op	       0 allocs/op
BenchmarkOldPath-8             	   10000	    150073 ns/op	   12376 B/op	       5 allocs/op
BenchmarkNoMem-8               	   10000	       100 ns/op
PASS
ok  	approxcache/internal/lsh	6.0s
`

func TestParseBench(t *testing.T) {
	rs, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("parsed %d results, want 4: %+v", len(rs), rs)
	}
	if rs[0].Name != "HotPathNearest" || rs[0].NsPerOp != 2100.5 || rs[0].AllocsPerOp != 0 || !rs[0].HasMem {
		t.Fatalf("first result = %+v", rs[0])
	}
	if rs[1].Name != "HotPathTopK/k=4" {
		t.Fatalf("sub-benchmark name = %q", rs[1].Name)
	}
	if rs[2].AllocsPerOp != 5 || rs[2].BytesPerOp != 12376 {
		t.Fatalf("mem columns = %+v", rs[2])
	}
	if rs[3].HasMem {
		t.Fatalf("NoMem flagged as measured: %+v", rs[3])
	}
}

func TestCheckBudgetsPass(t *testing.T) {
	rs, _ := parseBench(strings.NewReader(sample))
	if err := checkBudgets([]budget{{"HotPathNearest", 0}, {"HotPathTopK", 0}, {"OldPath", 5}}, rs); err != nil {
		t.Fatal(err)
	}
}

func TestCheckBudgetsExceeded(t *testing.T) {
	rs, _ := parseBench(strings.NewReader(sample))
	err := checkBudgets([]budget{{"OldPath", 0}}, rs)
	if err == nil || !strings.Contains(err.Error(), "exceeds budget") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckBudgetsMissingBenchmark(t *testing.T) {
	rs, _ := parseBench(strings.NewReader(sample))
	if err := checkBudgets([]budget{{"Vanished", 0}}, rs); err == nil {
		t.Fatal("missing benchmark passed the gate")
	}
}

func TestCheckBudgetsUnmeasured(t *testing.T) {
	rs, _ := parseBench(strings.NewReader(sample))
	err := checkBudgets([]budget{{"NoMem", 0}}, rs)
	if err == nil || !strings.Contains(err.Error(), "-benchmem") {
		t.Fatalf("err = %v", err)
	}
}

// TestCheckBudgetsBadSpec: the budgets and rows are Go literals now, so
// a bad spec is a bad table — check the ones that ship.
func TestCheckBudgetsBadSpec(t *testing.T) {
	if len(hotpathBudgets) != 26 {
		t.Fatalf("%d hot-path budgets, want the 18 carried over from the Makefile, four engine frames, the frame guard, the IMU window guard, the peer query and the classifier decision", len(hotpathBudgets))
	}
	seen := map[string]bool{}
	for _, b := range hotpathBudgets {
		if b.name == "" || b.maxAllocs < 0 || seen[b.name] {
			t.Fatalf("bad budget %+v", b)
		}
		seen[b.name] = true
	}
	for _, r := range rows {
		if r.file == "" || r.file == hotpathFile || r.path == "" || r.why == "" ||
			(r.cmp != ">=" && r.cmp != ">" && r.cmp != "==") {
			t.Fatalf("bad row %+v", r)
		}
	}
}

// hotpathSample is benchmark output with one allocation-free line per
// shipped budget.
func hotpathSample() string {
	var b strings.Builder
	for _, bud := range hotpathBudgets {
		fmt.Fprintf(&b, "Benchmark%s-8 \t 1000\t 2100.5 ns/op\t 0 B/op\t 0 allocs/op\n", bud.name)
	}
	return b.String()
}

func TestRunWritesJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), hotpathFile)
	var out strings.Builder
	if err := run([]string{"-json", path}, strings.NewReader(hotpathSample()), &out); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Host    map[string]any `json:"host"`
		Results []Result       `json:"results"`
	}
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatalf("%v\n%s", err, blob)
	}
	if len(rec.Results) != len(hotpathBudgets) || rec.Results[0].Name != "HotPathNearest" {
		t.Fatalf("results = %+v", rec.Results)
	}
	for _, k := range []string{"go_version", "goos", "goarch", "num_cpu", "gomaxprocs", "commit"} {
		if _, ok := rec.Host[k]; !ok {
			t.Fatalf("host stamp lacks %q: %v", k, rec.Host)
		}
	}
	if !strings.Contains(out.String(), "HotPathNearest") {
		t.Fatalf("summary missing: %s", out.String())
	}
	// The recorded file goes back through the same budgets by name.
	out.Reset()
	if err := run([]string{path}, nil, &out); err != nil {
		t.Fatal(err)
	}
	doctored := strings.Replace(string(blob), `"name": "HotPathVote",`, `"name": "HotPathVote", "allocs_per_op": 5,`, 1)
	for name, body := range map[string]string{
		"over budget":     doctored,
		"benchmark gone":  strings.Replace(string(blob), `"HotPathVote"`, `"Renamed"`, 1),
		"pre-host array":  `[{"name": "HotPathNearest", "has_mem": true}]`,
		"results emptied": `{"host": {}, "results": []}`,
		"malformed":       string(blob[:len(blob)/2]),
	} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{path}, nil, &out); err == nil || !strings.Contains(err.Error(), hotpathFile) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

func TestRunEmptyInput(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader("no benches here\n"), &out); err == nil {
		t.Fatal("empty input accepted")
	}
	// Parsed benchmarks that leave a shipped budget unmatched fail too.
	if err := run(nil, strings.NewReader(sample), &out); err == nil || !strings.Contains(err.Error(), "matched no benchmark") {
		t.Fatalf("err = %v", err)
	}
}

// gate writes body as dir/base and runs benchgate on it. Stdin is nil:
// file mode must not read it.
func gate(t *testing.T, base, body string) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), base)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{path}, nil, &out)
	return out.String(), err
}

// wantFailure asserts err names the row base:path.
func wantFailure(t *testing.T, err error, base, path string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), base+": "+path+":") {
		t.Fatalf("err = %v, want a failure of row %s: %s", err, base, path)
	}
}

// badFiles are the shapes every report gate refuses: unparseable,
// stripped of the array the rows range over, and absent.
func badFiles(t *testing.T, base, withoutArray string) {
	t.Helper()
	if _, err := gate(t, base, "not json"); err == nil {
		t.Fatal("corrupt report accepted")
	}
	if _, err := gate(t, base, withoutArray); err == nil {
		t.Fatal("report without its array accepted")
	}
	var out strings.Builder
	if err := run([]string{filepath.Join(t.TempDir(), base)}, nil, &out); err == nil {
		t.Fatal("missing report accepted")
	}
}

const throughputSample = `{
  "streams": 16,
  "frames_per_stream": 30,
  "results": [
    {"mode": "pool", "fps": 100.0},
    {"mode": "pool-batched", "fps": 350.0}
  ],
  "speedup": 3.5
}`

func TestThroughputGatePass(t *testing.T) {
	out, err := gate(t, "BENCH_throughput.json", throughputSample)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"results[*].fps = [100 350] > 0", "speedup = 3.5 >= 3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestThroughputGateFail(t *testing.T) {
	slow := strings.Replace(throughputSample, `"speedup": 3.5`, `"speedup": 2.99`, 1)
	_, err := gate(t, "BENCH_throughput.json", slow)
	wantFailure(t, err, "BENCH_throughput.json", "speedup")
	if !strings.Contains(err.Error(), "got 2.99, want >= 3") {
		t.Fatalf("err = %v", err)
	}
}

func TestThroughputGateBadFile(t *testing.T) {
	badFiles(t, "BENCH_throughput.json", `{"speedup": 9}`)
}

const overloadSample = `{
  "sessions": 8,
  "capacity_rps": 300.0,
  "points": [
    {"mode": "resilient", "load": 1, "offered_rps": 300.0, "goodput_rps": 280.0, "p99_ms": 40.0},
    {"mode": "resilient", "load": 4, "offered_rps": 1200.0, "goodput_rps": 270.0, "p99_ms": 80.0},
    {"mode": "unprotected", "load": 4, "offered_rps": 1200.0, "goodput_rps": 90.0, "p99_ms": 1500.0}
  ],
  "peak_goodput_rps": 280.0,
  "goodput_at_max_rps": 270.0,
  "retention": 0.96
}`

func TestOverloadGatePass(t *testing.T) {
	out, err := gate(t, "BENCH_overload.json", overloadSample)
	if err != nil {
		t.Fatal(err)
	}
	if want := "retention = 0.96 >= 0.85"; !strings.Contains(out, want) {
		t.Fatalf("summary missing %q:\n%s", want, out)
	}
}

func TestOverloadGateFail(t *testing.T) {
	collapsed := strings.Replace(overloadSample, `"retention": 0.96`, `"retention": 0.84`, 1)
	_, err := gate(t, "BENCH_overload.json", collapsed)
	wantFailure(t, err, "BENCH_overload.json", "retention")
}

func TestOverloadGateBadFile(t *testing.T) {
	badFiles(t, "BENCH_overload.json", `{"retention": 1}`)
}

const lookupSample = `{
  "dim": 80,
  "k": 4,
  "results": [
    {"entries": 256, "name": "flat-scan", "ns_per_op": 9000.0, "recall": 1.0, "allocs_per_op": 0},
    {"entries": 256, "name": "lsh-12x4", "ns_per_op": 6500.0, "recall": 0.98, "allocs_per_op": 0},
    {"entries": 1024, "name": "flat-scan", "ns_per_op": 30000.0, "recall": 1.0, "allocs_per_op": 0},
    {"entries": 1024, "name": "lsh-12x4", "ns_per_op": 17000.0, "recall": 0.99, "allocs_per_op": 0}
  ],
  "speedup": 1.76,
  "speedup_256": 1.38
}`

func TestLookupGatePass(t *testing.T) {
	out, err := gate(t, "BENCH_lookup.json", lookupSample)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"speedup = 1.76 >= 1.3", "results[*].recall = [1 0.98 1 0.99] >= 0.95"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestLookupGateFail(t *testing.T) {
	for _, c := range []struct{ old, new, row string }{
		{`"speedup": 1.76`, `"speedup": 1.29`, "speedup"},
		{`"recall": 0.98`, `"recall": 0.94`, "results[*].recall"},
		{`"recall": 0.99, "allocs_per_op": 0`, `"recall": 0.99, "allocs_per_op": 1`, "results[*].allocs_per_op"},
	} {
		_, err := gate(t, "BENCH_lookup.json", strings.Replace(lookupSample, c.old, c.new, 1))
		wantFailure(t, err, "BENCH_lookup.json", c.row)
	}
}

func TestLookupGateBadFile(t *testing.T) {
	badFiles(t, "BENCH_lookup.json", `{"speedup": 9}`)
}

const p2pSample = `{
  "nodes": 4,
  "sessions": 3,
  "frames": 400,
  "points": [
    {
      "bandwidth_mbps": 0.5,
      "compact": {"bytes_per_frame": 111.0, "peer_hit_rate": 0.98, "mean_latency_ms": 4.0},
      "bytes_reduction": 10.4
    }
  ],
  "constrained_mbps": 0.5,
  "bytes_reduction": 10.4,
  "hit_legacy": 0.98,
  "hit_compact": 0.98
}`

func TestP2PGatePass(t *testing.T) {
	out, err := gate(t, "BENCH_p2p.json", p2pSample)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bytes_reduction = 10.4 >= 4", "hit_compact = 0.98 >= hit_legacy (0.98)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestP2PGateFailReduction(t *testing.T) {
	fat := strings.Replace(p2pSample, `"bytes_reduction": 10.4,`, `"bytes_reduction": 3.9,`, 1)
	_, err := gate(t, "BENCH_p2p.json", fat)
	wantFailure(t, err, "BENCH_p2p.json", "bytes_reduction")
}

func TestP2PGateFailHitRate(t *testing.T) {
	lossy := strings.Replace(p2pSample, `"hit_compact": 0.98`, `"hit_compact": 0.90`, 1)
	_, err := gate(t, "BENCH_p2p.json", lossy)
	wantFailure(t, err, "BENCH_p2p.json", "hit_compact")
	if !strings.Contains(err.Error(), "must not cost hits") {
		t.Fatalf("err = %v", err)
	}
}

func TestP2PGateBadFile(t *testing.T) {
	badFiles(t, "BENCH_p2p.json", `{"bytes_reduction": 9, "hit_legacy": 1, "hit_compact": 1}`)
}

// TestRootFilesPass: the checked-in records pass the gates that ship,
// and each carries the host it was measured on.
func TestRootFilesPass(t *testing.T) {
	files := map[string]bool{hotpathFile: true}
	for _, r := range rows {
		files[r.file] = true
	}
	onDisk, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(onDisk) != len(files) {
		t.Fatalf("root BENCH files %v (err %v), gated files %v", onDisk, err, files)
	}
	var out strings.Builder
	if err := run(onDisk, nil, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, path := range onDisk {
		doc := load(t, path)
		host, _ := doc["host"].(map[string]any)
		for _, k := range []string{"go_version", "goos", "goarch", "num_cpu", "gomaxprocs", "commit"} {
			if _, ok := host[k]; !ok {
				t.Errorf("%s: host stamp lacks %q", path, k)
			}
		}
	}
	if _, err := gate(t, "BENCH_unknown.json", `{"speedup": 99}`); err == nil || !strings.Contains(err.Error(), "no gate rows") {
		t.Fatalf("a file name with no rows: err = %v", err)
	}
}

// TestEveryRowRejects doctors a copy of the checked-in record once per
// way a row can fail — the value just past the threshold, the member
// gone, the array it ranges over emptied, the file cut short — and
// expects the failure to name that row, with the other rows still run.
func TestEveryRowRejects(t *testing.T) {
	for _, r := range rows {
		r := r
		t.Run(r.file+"/"+r.path, func(t *testing.T) {
			path := filepath.Join("../..", r.file)
			threshold := r.want
			if r.wantPath != "" {
				threshold = load(t, path)[r.wantPath].(float64)
			}
			bad := map[string]float64{
				">=": math.Nextafter(threshold, math.Inf(-1)),
				">":  threshold,
				"==": threshold + 1,
			}[r.cmp]
			cases := map[string]func(parent map[string]any, key string){
				"past threshold": func(p map[string]any, k string) { p[k] = bad },
				"member deleted": func(p map[string]any, k string) { delete(p, k) },
				"not a number":   func(p map[string]any, k string) { p[k] = "fast" },
			}
			for name, edit := range cases {
				doc := load(t, path)
				edit(parentOf(t, doc, r.path))
				out, err := gate(t, r.file, dump(t, doc))
				wantFailure(t, err, r.file, r.path)
				if others := strings.Count(out, "ok    "); others != rowsFor(r.file)-1 {
					t.Errorf("%s: %d other rows reported ok, want %d:\n%s", name, others, rowsFor(r.file)-1, out)
				}
			}
			if arr, _, ranged := strings.Cut(r.path, "["); ranged {
				doc := load(t, path)
				p, k := parentOf(t, doc, arr)
				p[k] = []any{}
				_, err := gate(t, r.file, dump(t, doc))
				wantFailure(t, err, r.file, r.path)
			}
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := gate(t, r.file, string(blob[:len(blob)-2])); err == nil {
				t.Error("truncated file accepted")
			}
		})
	}
}

func rowsFor(file string) int {
	n := 0
	for _, r := range rows {
		if r.file == file {
			n++
		}
	}
	return n
}

func load(t *testing.T, path string) map[string]any {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return doc
}

func dump(t *testing.T, doc map[string]any) string {
	t.Helper()
	blob, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// parentOf walks path to the object holding its last member, entering
// element 0 of a [*] array and element N of a [N] one.
func parentOf(t *testing.T, doc map[string]any, path string) (map[string]any, string) {
	t.Helper()
	segs := strings.Split(path, ".")
	cur := doc
	for _, seg := range segs[:len(segs)-1] {
		key, index, indexed := strings.Cut(seg, "[")
		next := cur[key]
		if indexed {
			n, _ := strconv.Atoi(strings.TrimSuffix(index, "]")) // "*" → 0
			next = next.([]any)[n]
		}
		cur = next.(map[string]any)
	}
	key, _, _ := strings.Cut(segs[len(segs)-1], "[")
	return cur, key
}
