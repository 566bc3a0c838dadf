package main

import (
	"os"
	"path/filepath"
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
	if err := checkBudgets("HotPathNearest=0,HotPathTopK=0,OldPath=5", rs); err != nil {
		t.Fatal(err)
	}
}

func TestCheckBudgetsExceeded(t *testing.T) {
	rs, _ := parseBench(strings.NewReader(sample))
	err := checkBudgets("OldPath=0", rs)
	if err == nil || !strings.Contains(err.Error(), "exceeds budget") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckBudgetsMissingBenchmark(t *testing.T) {
	rs, _ := parseBench(strings.NewReader(sample))
	if err := checkBudgets("Vanished=0", rs); err == nil {
		t.Fatal("missing benchmark passed the gate")
	}
}

func TestCheckBudgetsUnmeasured(t *testing.T) {
	rs, _ := parseBench(strings.NewReader(sample))
	err := checkBudgets("NoMem=0", rs)
	if err == nil || !strings.Contains(err.Error(), "-benchmem") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckBudgetsBadSpec(t *testing.T) {
	rs, _ := parseBench(strings.NewReader(sample))
	if err := checkBudgets("NoEquals", rs); err == nil {
		t.Fatal("bad spec accepted")
	}
	if err := checkBudgets("X=notanumber", rs); err == nil {
		t.Fatal("bad limit accepted")
	}
}

func TestRunWritesJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out strings.Builder
	if err := run([]string{"-json", path, "-budgets", "HotPathNearest=0"},
		strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"HotPathNearest"`) {
		t.Fatalf("json missing result: %s", blob)
	}
	if !strings.Contains(out.String(), "HotPathNearest") {
		t.Fatalf("summary missing: %s", out.String())
	}
}

func TestRunEmptyInput(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader("no benches here\n"), &out); err == nil {
		t.Fatal("empty input accepted")
	}
}

const throughputSample = `{
  "streams": 16,
  "frames_per_stream": 30,
  "results": [
    {"mode": "single-mutex", "fps": 100.0},
    {"mode": "pool-sharded-batched", "fps": 350.0}
  ],
  "speedup": 3.5
}`

func writeThroughput(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tp.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestThroughputGatePass(t *testing.T) {
	var out strings.Builder
	// Stdin carries no benchmarks: the throughput mode must not read it.
	err := run([]string{"-throughput-json", writeThroughput(t, throughputSample), "-min-speedup", "3.0"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"single-mutex", "pool-sharded-batched", "3.50x"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, out.String())
		}
	}
}

func TestThroughputGateFail(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-throughput-json", writeThroughput(t, throughputSample), "-min-speedup", "4.0"},
		strings.NewReader(""), &out)
	if err == nil || !strings.Contains(err.Error(), "below required") {
		t.Fatalf("err = %v", err)
	}
}

func TestThroughputGateBadFile(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-throughput-json", writeThroughput(t, "not json")},
		strings.NewReader(""), &out); err == nil {
		t.Fatal("corrupt report accepted")
	}
	if err := run([]string{"-throughput-json", writeThroughput(t, `{"speedup": 9}`)},
		strings.NewReader(""), &out); err == nil {
		t.Fatal("empty results accepted")
	}
	if err := run([]string{"-throughput-json", filepath.Join(t.TempDir(), "missing.json")},
		strings.NewReader(""), &out); err == nil {
		t.Fatal("missing report accepted")
	}
}

const overloadSample = `{
  "sessions": 8,
  "capacity_rps": 300.0,
  "points": [
    {"mode": "resilient", "load": 1, "goodput_rps": 280.0, "p99_ms": 40.0},
    {"mode": "resilient", "load": 4, "goodput_rps": 270.0, "p99_ms": 80.0},
    {"mode": "unprotected", "load": 4, "goodput_rps": 90.0, "p99_ms": 1500.0}
  ],
  "peak_goodput_rps": 280.0,
  "goodput_at_max_rps": 270.0,
  "retention": 0.96
}`

func TestOverloadGatePass(t *testing.T) {
	var out strings.Builder
	// Stdin carries no benchmarks: the overload mode must not read it.
	err := run([]string{"-overload-json", writeThroughput(t, overloadSample), "-min-retention", "0.85"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"resilient", "unprotected", "0.96"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, out.String())
		}
	}
}

func TestOverloadGateFail(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-overload-json", writeThroughput(t, overloadSample), "-min-retention", "0.99"},
		strings.NewReader(""), &out)
	if err == nil || !strings.Contains(err.Error(), "below required") {
		t.Fatalf("err = %v", err)
	}
}

func TestOverloadGateBadFile(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-overload-json", writeThroughput(t, "not json")},
		strings.NewReader(""), &out); err == nil {
		t.Fatal("corrupt report accepted")
	}
	if err := run([]string{"-overload-json", writeThroughput(t, `{"retention": 1}`)},
		strings.NewReader(""), &out); err == nil {
		t.Fatal("empty points accepted")
	}
	if err := run([]string{"-overload-json", filepath.Join(t.TempDir(), "missing.json")},
		strings.NewReader(""), &out); err == nil {
		t.Fatal("missing report accepted")
	}
}

const p2pSample = `{
  "nodes": 4,
  "sessions": 3,
  "frames": 400,
  "points": [
    {
      "bandwidth_mbps": 0.5,
      "legacy": {"mode": "legacy-v1", "bytes_per_frame": 1160.0, "peer_hit_rate": 0.98, "mean_latency_ms": 12.5},
      "compact": {"mode": "compact-v2", "bytes_per_frame": 111.0, "peer_hit_rate": 0.98, "mean_latency_ms": 4.0},
      "bytes_reduction": 10.4
    }
  ],
  "constrained_mbps": 0.5,
  "bytes_reduction": 10.4,
  "hit_legacy": 0.98,
  "hit_compact": 0.98
}`

func TestP2PGatePass(t *testing.T) {
	var out strings.Builder
	// Stdin carries no benchmarks: the p2p mode must not read it.
	err := run([]string{"-p2p-json", writeThroughput(t, p2pSample), "-min-bytes-reduction", "4.0"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"legacy-v1", "compact-v2", "10.4x"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, out.String())
		}
	}
}

func TestP2PGateFailReduction(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-p2p-json", writeThroughput(t, p2pSample), "-min-bytes-reduction", "20"},
		strings.NewReader(""), &out)
	if err == nil || !strings.Contains(err.Error(), "below required") {
		t.Fatalf("err = %v", err)
	}
}

func TestP2PGateFailHitRate(t *testing.T) {
	lossy := strings.Replace(p2pSample, `"hit_compact": 0.98`, `"hit_compact": 0.90`, 1)
	var out strings.Builder
	err := run([]string{"-p2p-json", writeThroughput(t, lossy)},
		strings.NewReader(""), &out)
	if err == nil || !strings.Contains(err.Error(), "must not cost hits") {
		t.Fatalf("err = %v", err)
	}
}

func TestP2PGateBadFile(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-p2p-json", writeThroughput(t, "not json")},
		strings.NewReader(""), &out); err == nil {
		t.Fatal("corrupt report accepted")
	}
	if err := run([]string{"-p2p-json", writeThroughput(t, `{"bytes_reduction": 9}`)},
		strings.NewReader(""), &out); err == nil {
		t.Fatal("empty points accepted")
	}
	if err := run([]string{"-p2p-json", filepath.Join(t.TempDir(), "missing.json")},
		strings.NewReader(""), &out); err == nil {
		t.Fatal("missing report accepted")
	}
}
