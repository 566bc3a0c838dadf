package eval

import (
	"strconv"
	"strings"
	"testing"

	"approxcache/internal/core"
	"approxcache/internal/simnet"
	"approxcache/internal/trace"
)

func tinyScale() Scale { return Scale{Frames: 200, Seed: 42} }

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
	if err := SmallScale().validate(); err != nil {
		t.Fatal(err)
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
	// E1–E25 without the retired E9 and E24.
	if len(seen) != 23 || seen["E9"] || seen["E24"] {
		t.Fatalf("suite has %d experiments (E9 present: %v, E24 present: %v), want 23 without E9 and E24",
			len(seen), seen["E9"], seen["E24"])
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

func TestReportCSV(t *testing.T) {
	r := Report{
		ID:      "EX",
		Headers: []string{"a", "b"},
		Rows:    [][]string{{"1", `has,comma`}, {`has"quote`, "2"}},
	}
	csv := r.CSV()
	want := "a,b\n1,\"has,comma\"\n\"has\"\"quote\",2\n"
	if csv != want {
		t.Fatalf("csv = %q, want %q", csv, want)
	}
}

func TestRunSingleSmoke(t *testing.T) {
	dev, err := runSingle(deviceConfig{
		Name:   "dev",
		Spec:   trace.StationaryHeavy(100, 1),
		Engine: core.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := dev.engine.Stats().Frames(); n != 100 {
		t.Fatalf("frames = %d", n)
	}
	if dev.store == nil || dev.store.Len() == 0 {
		t.Fatal("store empty after run")
	}
}

func TestRunSingleBaselineHasNoStore(t *testing.T) {
	dev, err := runSingle(deviceConfig{
		Name:   "dev",
		Spec:   trace.StationaryHeavy(50, 1),
		Engine: baseline(core.ModeNoCache),
	})
	if err != nil {
		t.Fatal(err)
	}
	if dev.store != nil {
		t.Fatal("baseline returned a store")
	}
	if dev.engine.Stats().HitRate() != 0 {
		t.Fatal("baseline produced hits")
	}
}

func TestRunGroupValidation(t *testing.T) {
	if _, err := runGroup(nil, 1, simnet.DefaultLinkProfile()); err == nil {
		t.Fatal("empty group accepted")
	}
}

func TestRunGroupPeersHelp(t *testing.T) {
	shared := int64(777)
	specA := trace.WalkingTour(150, 1)
	specA.ClassSeed = shared
	specB := trace.WalkingTour(150, 55)
	specB.ClassSeed = shared
	group, err := runGroup([]deviceConfig{
		{Name: "a", Spec: specA, Engine: core.DefaultConfig(), Seed: 1},
		{Name: "b", Spec: specB, Engine: core.DefaultConfig(), Seed: 2},
	}, 3, simnet.DefaultLinkProfile())
	if err != nil {
		t.Fatal(err)
	}
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

func TestRunScenario(t *testing.T) {
	sc := trace.CrowdScenario(3, 90, 5)
	group, err := RunScenario(sc, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(group) != 3 {
		t.Fatalf("group = %d devices", len(group))
	}
	queries := 0
	for name, stats := range group {
		if stats.Frames() != 90 {
			t.Fatalf("%s frames = %d", name, stats.Frames())
		}
		q, _ := stats.PeerQueries()
		queries += q
	}
	if queries == 0 {
		t.Fatal("scenario produced no peer traffic")
	}
	if _, err := RunScenario(trace.Scenario{}, core.DefaultConfig()); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

func TestE1HeadlineShape(t *testing.T) {
	r, err := E1Headline(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
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
	naive := parseMs(t, byName["naive-skip (1/20)"][1])
	if naive > noCache/3 {
		t.Fatalf("naive-skip %vms not fast (budget mismatch?)", naive)
	}
	naiveAcc := parsePct(t, byName["naive-skip (1/20)"][5])
	if naiveAcc > localAcc+0.02 {
		t.Fatalf("naive-skip accuracy %v beats gated pipeline %v", naiveAcc, localAcc)
	}
}

func TestE2ThresholdSweepShape(t *testing.T) {
	r, err := E2ThresholdSweep(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
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
	r, err := E3HitBreakdown(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
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
	r, err := E5CapacitySweep(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
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

func TestE6EnergyShape(t *testing.T) {
	r, err := E6Energy(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	var base, local float64
	for _, row := range r.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
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
	if local > base/3 {
		t.Fatalf("approx energy %v not ≪ no-cache %v", local, base)
	}
}

func TestE7LSHAblationShape(t *testing.T) {
	r, err := E7LSHAblation(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
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
	r, err := E8MotionGate(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
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
	r, err := E10ModelSweep(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
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
	r, err := E11Robustness(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
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

func TestE13BatteryShape(t *testing.T) {
	r, err := E13Battery(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	base, err := strconv.ParseFloat(r.Rows[0][2], 64)
	if err != nil {
		t.Fatal(err)
	}
	apx, err := strconv.ParseFloat(r.Rows[1][2], 64)
	if err != nil {
		t.Fatal(err)
	}
	if apx < 5*base {
		t.Fatalf("approx frames/charge %v not ≫ no-cache %v", apx, base)
	}
}

func TestE12LossyNetworkShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-device sweep")
	}
	r, err := E12LossyNetwork(Scale{Frames: 120, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
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

func TestE16DigestFilterShape(t *testing.T) {
	r, err := E16DigestFilter(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	noDigHits, err := strconv.Atoi(r.Rows[0][1])
	if err != nil {
		t.Fatal(err)
	}
	digHits, err := strconv.Atoi(r.Rows[1][1])
	if err != nil {
		t.Fatal(err)
	}
	noDigMsgs, err := strconv.Atoi(r.Rows[0][2])
	if err != nil {
		t.Fatal(err)
	}
	digMsgs, err := strconv.Atoi(r.Rows[1][2])
	if err != nil {
		t.Fatal(err)
	}
	// Digests must preserve nearly all hits at a fraction of the
	// traffic.
	if digHits*100 < noDigHits*95 {
		t.Fatalf("digests lost hits: %d vs %d", digHits, noDigHits)
	}
	if digMsgs*2 > noDigMsgs {
		t.Fatalf("digests did not halve traffic: %d vs %d", digMsgs, noDigMsgs)
	}
}

func TestE17PeerChurnShape(t *testing.T) {
	r, err := E17PeerChurn(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
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
	r, err := E14GateGrid(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
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

func TestE15LatencyCDFShape(t *testing.T) {
	r, err := E15LatencyCDF(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 || len(r.Headers) != 4 {
		t.Fatalf("shape = %dx%d", len(r.Rows), len(r.Headers))
	}
	// Each system's column is non-decreasing down the percentiles.
	for col := 1; col < 4; col++ {
		prev := -1.0
		for _, row := range r.Rows {
			v := parseMs(t, row[col])
			if v < prev {
				t.Fatalf("column %s not monotone: %v after %v", r.Headers[col], v, prev)
			}
			prev = v
		}
	}
	// Approx p50 is orders of magnitude below no-cache p50.
	var p50 []string
	for _, row := range r.Rows {
		if row[0] == "p50" {
			p50 = row
		}
	}
	if parseMs(t, p50[3])*10 > parseMs(t, p50[1]) {
		t.Fatalf("approx p50 %v not ≪ no-cache p50 %v", p50[3], p50[1])
	}
}

func TestE4PeerSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-device sweep")
	}
	r, err := E4PeerSweep(Scale{Frames: 120, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Zero peers: no peer traffic.
	if r.Rows[0][2] != "0" {
		t.Fatalf("0-peer row has queries: %v", r.Rows[0])
	}
}
