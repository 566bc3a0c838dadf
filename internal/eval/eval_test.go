package eval

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"approxcache/internal/core"
	"approxcache/internal/simnet"
	"approxcache/internal/trace"
)

func tinyScale() Scale { return Scale{Frames: 200, Seed: 42} }

// smallScale is approxbench -frames 300.
func smallScale() Scale { return Scale{Frames: 300, Seed: 42} }

// parsePct converts a rendered "93.4%" cell back to a float.
func parsePct(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("parse pct %q: %v", cell, err)
	}
	return v / 100
}

// parseMs converts a rendered "12.34ms" cell back to milliseconds.
func parseMs(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "ms"), 64)
	if err != nil {
		t.Fatalf("parse ms %q: %v", cell, err)
	}
	return v
}

func TestScaleValidate(t *testing.T) {
	if err := (Scale{}).validate(); err == nil {
		t.Fatal("zero scale accepted")
	}
	if err := DefaultScale().validate(); err != nil {
		t.Fatal(err)
	}
	if err := smallScale().validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRunExperimentsRefusesShortRuns: RunExperiments is where a Scale
// is checked, before any experiment starts. It refuses a non-positive
// frame count for every experiment, and a run shorter than E18's chaos
// phases or E19's fault windows need, whichever experiments beside them
// are selected; at each minimum it runs.
func TestRunExperimentsRefusesShortRuns(t *testing.T) {
	chaosShort := fmt.Sprintf("eval: chaos needs ≥ %d frames, got %d", chaosMinFrames, chaosMinFrames-1)
	for _, c := range []struct {
		ids    []string
		frames int
		want   string // the refusal; empty when the run is accepted
	}{
		{[]string{"E3"}, 0, "eval: frames must be positive, got 0"},
		{[]string{"E22"}, -1, "eval: frames must be positive, got -1"},
		{[]string{"E3"}, 1, ""},
		{[]string{"E18"}, chaosMinFrames - 1, chaosShort},
		{[]string{"E3", "E18"}, chaosMinFrames - 1, chaosShort},
		{[]string{"E18"}, chaosMinFrames, ""},
		{[]string{"E19"}, 29, "eval: fault matrix needs ≥ 30 frames, got 29"},
		{[]string{"E19"}, 30, ""},
	} {
		t.Run(fmt.Sprintf("%s/%d", strings.Join(c.ids, "+"), c.frames), func(t *testing.T) {
			var exps []Experiment
			for _, id := range c.ids {
				e, err := ByID(id)
				if err != nil {
					t.Fatal(err)
				}
				exps = append(exps, e)
			}
			reports, err := RunExperiments(exps, Scale{Frames: c.frames, Seed: 42})
			switch {
			case c.want != "" && (err == nil || err.Error() != c.want):
				t.Fatalf("err = %v, want %q", err, c.want)
			case c.want == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case c.want == "" && (len(reports) != len(c.ids) || reports[0].ID != c.ids[0] || len(reports[0].Rows) == 0):
				t.Fatalf("reports = %v", reports)
			}
		})
	}
}

// TestMustPanicsWithTheCallsError: must and check pass a successful
// call through, and panic with the failed call's own error.
func TestMustPanicsWithTheCallsError(t *testing.T) {
	if got := must(7, nil); got != 7 {
		t.Fatalf("must(7, nil) = %d", got)
	}
	check(nil)
	errCall := errors.New("call failed")
	for name, call := range map[string]func(){
		"must":  func() { must(7, errCall) },
		"check": func() { check(errCall) },
	} {
		func() {
			defer func() {
				if err, ok := recover().(error); !ok || !errors.Is(err, errCall) {
					t.Errorf("%s: recovered %v, want a panic with %v", name, err, errCall)
				}
			}()
			call()
		}()
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("E3")
	if err != nil || e.Name != "hit-breakdown" {
		t.Fatalf("ByID(E3) = %+v, %v", e, err)
	}
	e, err = ByID("peer-sweep")
	if err != nil || e.ID != "E4" {
		t.Fatalf("ByID(peer-sweep) = %+v, %v", e, err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestAllHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil {
			t.Fatalf("%s has no runner", e.ID)
		}
	}
	// E1–E25 without the retired E6, E9, E13, E15, E16 and E24.
	if len(seen) != 19 || seen["E6"] || seen["E9"] || seen["E13"] || seen["E15"] || seen["E16"] || seen["E24"] {
		t.Fatalf("suite has %d experiments, want 19 without E6, E9, E13, E15, E16 and E24", len(seen))
	}
}

func TestReportString(t *testing.T) {
	r := Report{
		ID:      "EX",
		Title:   "test",
		Headers: []string{"a", "longer-column"},
		Rows:    [][]string{{"1", "2"}, {"333333", "4"}},
		Notes:   []string{"a note"},
	}
	s := r.String()
	for _, want := range []string{"EX — test", "longer-column", "333333", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Fatalf("render missing %q:\n%s", want, s)
		}
	}
	empty := Report{ID: "E0", Title: "empty"}
	if !strings.Contains(empty.String(), "E0") {
		t.Fatal("empty report render broken")
	}
}

func TestRunSingleSmoke(t *testing.T) {
	dev := runSingle(deviceConfig{
		Name:   "dev",
		Spec:   trace.StationaryHeavy(100, 1),
		Engine: core.DefaultConfig(),
	})
	if n := dev.engine.Stats().Frames(); n != 100 {
		t.Fatalf("frames = %d", n)
	}
	if dev.store == nil || dev.store.Len() == 0 {
		t.Fatal("store empty after run")
	}
}

func TestRunSingleBaselineHasNoStore(t *testing.T) {
	dev := runSingle(deviceConfig{
		Name:   "dev",
		Spec:   trace.StationaryHeavy(50, 1),
		Engine: baseline(core.ModeNoCache),
	})
	if dev.store != nil {
		t.Fatal("baseline returned a store")
	}
	if dev.engine.Stats().HitRate() != 0 {
		t.Fatal("baseline produced hits")
	}
}

func TestRunGroupPeersHelp(t *testing.T) {
	shared := int64(777)
	specA := trace.WalkingTour(150, 1)
	specA.ClassSeed = shared
	specB := trace.WalkingTour(150, 55)
	specB.ClassSeed = shared
	group := runGroup([]deviceConfig{
		{Name: "a", Spec: specA, Engine: core.DefaultConfig(), Seed: 1},
		{Name: "b", Spec: specB, Engine: core.DefaultConfig(), Seed: 2},
	}, 3, simnet.DefaultLinkProfile())
	if len(group) != 2 {
		t.Fatalf("group = %v", group)
	}
	totalPeerTraffic := 0
	for _, dev := range group {
		q, _ := dev.engine.Stats().PeerQueries()
		totalPeerTraffic += q
	}
	if totalPeerTraffic == 0 {
		t.Fatal("no peer queries in a group run")
	}
}

func TestE1HeadlineShape(t *testing.T) {
	r := E1Headline(tinyScale())
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byName := map[string][]string{}
	for _, row := range r.Rows {
		byName[row[0]] = row
	}
	noCache := parseMs(t, byName["no-cache"][1])
	exact := parseMs(t, byName["exact-cache"][1])
	local := parseMs(t, byName["approx (local)"][1])
	full := parseMs(t, byName["approx (full, 2 peers)"][1])
	// Shape: approximate caching is dramatically faster; exact-match
	// caching is not (bit-identical frames never recur).
	if local > noCache/3 {
		t.Fatalf("approx(local) %vms not ≪ no-cache %vms", local, noCache)
	}
	if full > noCache/3 {
		t.Fatalf("approx(full) %vms not ≪ no-cache %vms", full, noCache)
	}
	if exact < noCache*0.8 {
		t.Fatalf("exact-cache %vms unexpectedly fast vs %vms", exact, noCache)
	}
	// Minimal accuracy loss.
	baseAcc := parsePct(t, byName["no-cache"][5])
	localAcc := parsePct(t, byName["approx (local)"][5])
	if baseAcc-localAcc > 0.12 {
		t.Fatalf("accuracy loss too large: %v vs %v", baseAcc, localAcc)
	}
	// Naive skipping matches the latency but must not beat the gated
	// pipeline's accuracy: blind reuse crosses scene changes.
	naive := parseMs(t, byName["naive-skip (streak 20)"][1])
	if naive > noCache/3 {
		t.Fatalf("naive-skip %vms not fast (budget mismatch?)", naive)
	}
	naiveAcc := parsePct(t, byName["naive-skip (streak 20)"][5])
	if naiveAcc > localAcc+0.02 {
		t.Fatalf("naive-skip accuracy %v beats gated pipeline %v", naiveAcc, localAcc)
	}
}

// TestE6EnergyShape checks E1's energy/frame column, which carries what
// the retired E6 experiment reported: avoided inferences dominate energy.
func TestE6EnergyShape(t *testing.T) {
	r := E1Headline(tinyScale())
	col := slices.Index(r.Headers, "energy/frame (mJ)")
	if col < 0 {
		t.Fatalf("no energy column in %v", r.Headers)
	}
	var base, local float64
	for _, row := range r.Rows {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatal(err)
		}
		switch row[0] {
		case "no-cache":
			base = v
		case "approx (local)":
			local = v
		}
	}
	if base == 0 {
		t.Fatal("no no-cache energy row")
	}
	if local > base/3 {
		t.Fatalf("approx energy %v not ≪ no-cache %v", local, base)
	}
}

func TestE2ThresholdSweepShape(t *testing.T) {
	r := E2ThresholdSweep(tinyScale())
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Hit rate is non-decreasing in the threshold (larger radius can
	// only accept more), modulo vote dominance; check endpoints.
	first := parsePct(t, r.Rows[0][1])
	last := parsePct(t, r.Rows[len(r.Rows)-1][1])
	if last < first {
		t.Fatalf("hit rate fell from %v to %v as threshold grew", first, last)
	}
}

func TestE3HitBreakdownShape(t *testing.T) {
	r := E3HitBreakdown(tinyScale())
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	shares := map[string][]string{}
	for _, row := range r.Rows {
		shares[row[0]] = row
	}
	// Stationary-heavy leans on the IMU gate far more than the
	// panning sweep does.
	statIMU := parsePct(t, shares["stationary-heavy"][1])
	panIMU := parsePct(t, shares["panning-sweep"][1])
	if statIMU <= panIMU {
		t.Fatalf("imu share: stationary %v <= panning %v", statIMU, panIMU)
	}
	// Panning runs the DNN more than stationary.
	statDNN := parsePct(t, shares["stationary-heavy"][5])
	panDNN := parsePct(t, shares["panning-sweep"][5])
	if panDNN <= statDNN {
		t.Fatalf("dnn share: panning %v <= stationary %v", panDNN, statDNN)
	}
}

func TestE5CapacitySweepShape(t *testing.T) {
	r := E5CapacitySweep(tinyScale())
	if len(r.Rows) != 15 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Bigger caches never hit less (comparing smallest to largest
	// capacity under the same policy).
	firstLRU := parsePct(t, r.Rows[0][2])
	lastLRU := parsePct(t, r.Rows[12][2])
	if lastLRU+0.02 < firstLRU {
		t.Fatalf("lru hit rate fell with capacity: %v -> %v", firstLRU, lastLRU)
	}
}

func TestE7LSHAblationShape(t *testing.T) {
	r := E7LSHAblation(tinyScale())
	if len(r.Rows) != 16 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// At fixed bits, recall must not degrade with more tables.
	recall := func(row []string) float64 { return parsePct(t, row[2]) }
	if recall(r.Rows[3])+0.05 < recall(r.Rows[0]) {
		t.Fatalf("8-bit recall fell with more tables: %v -> %v",
			recall(r.Rows[0]), recall(r.Rows[3]))
	}
}

func TestE8MotionGateShape(t *testing.T) {
	r := E8MotionGate(tinyScale())
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Looser thresholds produce at least as many IMU hits.
	first, err := strconv.Atoi(r.Rows[0][1])
	if err != nil {
		t.Fatal(err)
	}
	last, err := strconv.Atoi(r.Rows[len(r.Rows)-1][1])
	if err != nil {
		t.Fatal(err)
	}
	if last < first {
		t.Fatalf("imu hits fell as thresholds loosened: %d -> %d", first, last)
	}
}

func TestE10ModelSweepShape(t *testing.T) {
	r := E10ModelSweep(tinyScale())
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if red := parsePct(t, row[3]); red < 0.8 {
			t.Fatalf("model %s reduction = %v", row[0], red)
		}
	}
}

func TestE11RobustnessShape(t *testing.T) {
	r := E11Robustness(tinyScale())
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Hard perturbation must not be easier than default on the same
	// workload (hit rate comparison, small tolerance for gate noise).
	for i := 0; i < len(r.Rows); i += 2 {
		def := parsePct(t, r.Rows[i][2])
		hard := parsePct(t, r.Rows[i+1][2])
		if hard > def+0.05 {
			t.Fatalf("%s: hard hit rate %v above default %v", r.Rows[i][0], hard, def)
		}
	}
}

func TestE12LossyNetworkShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-device sweep")
	}
	r := E12LossyNetwork(Scale{Frames: 120, Seed: 42})
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Accuracy must not collapse under loss.
	for _, row := range r.Rows {
		if acc := parsePct(t, row[4]); acc < 0.7 {
			t.Fatalf("loss %s: accuracy %v", row[0], acc)
		}
	}
}

func TestE17PeerChurnShape(t *testing.T) {
	r := E17PeerChurn(tinyScale())
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	static := parseMs(t, r.Rows[0][1])
	maintained := parseMs(t, r.Rows[1][1])
	if maintained >= static {
		t.Fatalf("maintained cost %v not below static %v", maintained, static)
	}
	// Hits are preserved: live peers hold the same content.
	if r.Rows[0][2] != r.Rows[1][2] {
		t.Fatalf("hit counts differ: %v vs %v", r.Rows[0][2], r.Rows[1][2])
	}
}

func TestE14GateGridShape(t *testing.T) {
	r := E14GateGrid(tinyScale())
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byName := map[string][]string{}
	for _, row := range r.Rows {
		byName[row[0]] = row
	}
	// No IMU gate → zero IMU share; video gate absorbs it.
	if parsePct(t, byName["no imu gate"][1]) != 0 {
		t.Fatal("disabled IMU gate produced IMU hits")
	}
	if parsePct(t, byName["no video gate"][2]) != 0 {
		t.Fatal("disabled video gate produced video hits")
	}
	// Feature-cache-only is the slowest configuration.
	full := parseMs(t, byName["full (4 keyframes)"][7])
	featOnly := parseMs(t, byName["feature cache only"][7])
	if featOnly <= full {
		t.Fatalf("feature-only %v not slower than full %v", featOnly, full)
	}
}

// TestE15LatencyCDFShape checks E1's p50 and p99 columns, which carry
// what the retired E15 experiment reported: the cached pipeline is
// bimodal, a sub-millisecond mass of reuse hits under an inference-cost
// tail.
func TestE15LatencyCDFShape(t *testing.T) {
	r := E1Headline(tinyScale())
	p50Col, p99Col := slices.Index(r.Headers, "p50"), slices.Index(r.Headers, "p99")
	if p50Col < 0 || p99Col < 0 {
		t.Fatalf("no p50 or p99 column in %v", r.Headers)
	}
	p50, p99 := map[string]float64{}, map[string]float64{}
	for _, row := range r.Rows {
		p50[row[0]], p99[row[0]] = parseMs(t, row[p50Col]), parseMs(t, row[p99Col])
		if p50[row[0]] > p99[row[0]] {
			t.Fatalf("%s: p50 %v above p99 %v", row[0], row[p50Col], row[p99Col])
		}
	}
	base, approx := "no-cache", "approx (local)"
	if _, ok := p50[approx]; !ok {
		t.Fatalf("no %q row", approx)
	}
	// Approx p50 is orders of magnitude below no-cache p50, and its p99
	// is an inference, orders of magnitude above its own p50.
	if p50[approx]*10 > p50[base] {
		t.Fatalf("approx p50 %v not ≪ no-cache p50 %v", p50[approx], p50[base])
	}
	if p99[approx] < 10*p50[approx] {
		t.Fatalf("approx p99 %v not an inference-cost tail over p50 %v", p99[approx], p50[approx])
	}
}

func TestE4PeerSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-device sweep")
	}
	r := E4PeerSweep(Scale{Frames: 120, Seed: 42})
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Zero peers: no peer traffic.
	if r.Rows[0][2] != "0" {
		t.Fatalf("0-peer row has queries: %v", r.Rows[0])
	}
}
