package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"approxcache/internal/benchfile"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunUnknownExperiment: an id or name the suite does not have is
// refused, a retired one included.
func TestRunUnknownExperiment(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "E99"},
		{"-exp", "E6"},
		{"-exp", "energy"},
		{"-exp", "E13"},
		{"-exp", "battery"},
		{"-exp", "E15"},
		{"-exp", "latency-cdf"},
		{"-exp", "E16"},
		{"-exp", "digest-filter"},
	} {
		if err := run(args); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
}

// TestRunBadFrames: a non-positive -frames is refused for every
// experiment, the gated benchmarks (which pick their size from the
// scale) included, and so is a run shorter than E18's or E19's minimum,
// alone or in the whole suite: an error, not a panic.
func TestRunBadFrames(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "E3", "-frames", "0"},
		{"-exp", "E23", "-frames", "0"},
		{"-exp", "E22", "-frames", "-1"},
		{"-exp", "E18", "-frames", "10"},
		{"-exp", "E19", "-frames", "29"},
		{"-frames", "10"},
	} {
		if err := run(args); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
}

func TestRunSingleExperimentTable(t *testing.T) {
	if err := run([]string{"-exp", "E3", "-frames", "80"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunParallelAllCPUs: -parallel -1 runs one worker per CPU, which
// the closing line reports.
func TestRunParallelAllCPUs(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	err = run([]string{"-exp", "E3", "-frames", "60", "-parallel", "-1"})
	os.Stdout = stdout
	w.Close()
	printed := <-out
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(", parallel=%d)", runtime.NumCPU()); !strings.Contains(printed, want) {
		t.Fatalf("output lacks %q:\n%s", want, printed)
	}
}

func TestRunByName(t *testing.T) {
	if err := run([]string{"-exp", "threshold-sweep", "-frames", "80"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestRunThroughputTiny records E20 at small scale the way `make bench`
// does at full scale: the typed report lands in the -json file with a
// host stamp, and -cpuprofile covers the run (the gated benchmarks go
// through the same code path as every other experiment).
func TestRunThroughputTiny(t *testing.T) {
	dir := t.TempDir()
	path, prof := filepath.Join(dir, "BENCH_throughput.json"), filepath.Join(dir, "cpu.out")
	if err := run([]string{"-exp", "E20", "-frames", "300", "-json", path, "-cpuprofile", prof}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"pool"`, `"pool-batched"`, `"speedup"`} {
		if !strings.Contains(string(blob), want) {
			t.Fatalf("report missing %s:\n%s", want, blob)
		}
	}
	var rec struct {
		Host    benchfile.Host `json:"host"`
		Speedup float64        `json:"speedup"`
	}
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Host.GoVersion != runtime.Version() || rec.Host.NumCPU < 1 || rec.Host.GOMAXPROCS < 1 || rec.Host.Commit == "" {
		t.Fatalf("host stamp = %+v", rec.Host)
	}
	if rec.Speedup <= 0 {
		t.Fatalf("speedup = %v", rec.Speedup)
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Fatalf("cpu profile not written: %v", err)
	}
}

func TestRunJSONNeedsOneGatedExperiment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := run([]string{"-json", path}); err == nil {
		t.Fatal("-json with -exp all accepted")
	}
	if err := run([]string{"-exp", "E3", "-frames", "80", "-json", path}); err == nil {
		t.Fatal("-json accepted for an experiment with no typed report")
	}
	if _, err := os.Stat(path); err == nil {
		t.Fatal("a report file was written anyway")
	}
}
