package main

import (
	"fmt"
	"strings"
	"testing"
)

// pairRuns builds the records of n seeds of one workload: the parent's
// frames_per_s is 100+seed and the change's fps(seed); sim is the
// change's sim_mean_ms for a seed (the parent's is 10).
func pairRuns(t *testing.T, workload string, n int, fps, sim func(seed int) float64) []run {
	t.Helper()
	var lines []string
	for seed := 1; seed <= n; seed++ {
		for _, side := range []struct {
			name     string
			fps, sim float64
		}{{"parent", float64(100 + seed), 10}, {"change", fps(seed), sim(seed)}} {
			lines = append(lines, fmt.Sprintf(`{"side":%q,"workload":%q,"seed":%d,"result":{"correct":true,"failed":0,`+
				`"metrics":{"frames_per_s":{"value":%v},"sim_mean_ms":{"value":%v}}}}`, side.name, workload, seed, side.fps, side.sim))
		}
	}
	runs, err := readRuns(strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// TestSummariseRules: a change that wins every pair by more than the
// parent's IQR reads "gain" with 10/10 wins; a moved sim metric on a
// sequential workload fails, as does a pool-serve median outside the
// parent's min–max, while one inside it passes.
func TestSummariseRules(t *testing.T) {
	metrics := []metric{{"frames_per_s", "higher"}, {"sim_mean_ms", "lower"}}
	same := func(int) float64 { return 10 }
	cases := []struct {
		name     string
		workload string
		fps, sim func(int) float64
		ok       bool
		want     string
	}{
		{"gain", "photo-lookup", func(s int) float64 { return float64(130 + s) }, same, true, "10/10   +28.4% gain"},
		{"no gain", "photo-lookup", func(s int) float64 { return float64(100 + 11 - s) }, same, true, "identical to the last digit"},
		{"sim moved", "photo-lookup", func(s int) float64 { return 105 }, func(s int) float64 { return 10 + float64(s%2) }, false, "SIM MISMATCH: sim_mean_ms differs in 5/10 pairs"},
		{"pool-serve out", concurrent, func(s int) float64 { return 105 }, func(int) float64 { return 11 }, false, "SIM OUT OF RANGE"},
		{"pool-serve in", concurrent, func(s int) float64 { return 105 }, same, true, "inside the parent's min–max"},
	}
	for _, c := range cases {
		var out strings.Builder
		if ok := summarise(&out, metrics, pairRuns(t, c.workload, 10, c.fps, c.sim)); ok != c.ok || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: ok %v (want %v), output lacks %q:\n%s", c.name, ok, c.ok, c.want, out.String())
		}
		if c.name == "no gain" && strings.Contains(out.String(), " gain") {
			t.Errorf("no gain: reads as a gain:\n%s", out.String())
		}
	}
}

// benchRuns is pairs-hot's record of n rounds of two rows: the parent's
// HotPathA takes 100+round ns/op and the change's a(round); HotPathB
// allocates 2 per op on the parent's side and allocs on the change's.
func benchRuns(n int, a func(round int) float64, allocs int) string {
	var b strings.Builder
	for round := 1; round <= n; round++ {
		for _, s := range []struct {
			side   string
			ns     float64
			allocs int
		}{{"parent", float64(100 + round), 2}, {"change", a(round), allocs}} {
			fmt.Fprintf(&b, "side: %s\ngoos: linux\npkg: approxcache/internal/x\n", s.side)
			fmt.Fprintf(&b, "BenchmarkHotPathA/48x48-2 \t 1000\t %v ns/op\t 0 B/op\t 0 allocs/op\n", s.ns)
			fmt.Fprintf(&b, "BenchmarkHotPathB-2 \t 1000\t 50.5 ns/op\t 16 B/op\t %d allocs/op\nPASS\n", s.allocs)
		}
	}
	return b.String()
}

// TestSummariseBenchRules: Go benchmark lines pair by round under the
// workload rule — a row faster in every round by more than the
// parent's IQR reads "gain", one inside the parent's spread reads
// nothing — and a row whose allocs/op rise fails.
func TestSummariseBenchRules(t *testing.T) {
	cases := []struct {
		name   string
		a      func(int) float64
		allocs int
		ok     bool
		want   string
	}{
		{"gain", func(r int) float64 { return float64(60 + r) }, 2, true, "10/10   -37.9% gain"},
		{"no label", func(r int) float64 { return float64(100 + 11 - r) }, 2, true, "5/10"},
		{"loss", func(r int) float64 { return float64(130 + r) }, 2, true, "0/10   +28.4% loss"},
		{"allocs rose", func(r int) float64 { return float64(100 + r) }, 3, false, "ALLOCS ROSE: HotPathB-2 allocs/op median 2 → 3"},
	}
	for _, c := range cases {
		rows, err := readBench(strings.NewReader(benchRuns(10, c.a, c.allocs)))
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if ok := summariseBench(&out, rows); ok != c.ok || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: ok %v (want %v), output lacks %q:\n%s", c.name, ok, c.ok, c.want, out.String())
		}
		if c.name == "no label" && (strings.Contains(out.String(), "gain") || strings.Contains(out.String(), "loss")) {
			t.Errorf("no label: reads as a gain or loss:\n%s", out.String())
		}
	}
	if _, err := readBench(strings.NewReader("BenchmarkX-2 \t 10\t 5 ns/op\n")); err == nil {
		t.Error("a row before any side line was accepted")
	}
}
