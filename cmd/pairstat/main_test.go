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
