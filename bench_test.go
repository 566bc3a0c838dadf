package approxcache_test

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"approxcache"
	"approxcache/internal/eval"
	"approxcache/internal/feature"
	"approxcache/internal/imu"
	"approxcache/internal/lsh"
	"approxcache/internal/p2p"
	"approxcache/internal/vision"
)

// ---------------------------------------------------------------------------
// Experiment benches: one per table/figure (E1–E25). Each runs the full
// experiment at a reduced scale and reports the headline metric of its
// table via b.ReportMetric, so `go test -bench .` regenerates the whole
// evaluation in miniature.
// ---------------------------------------------------------------------------

// runExperiment executes experiment id once per iteration and returns
// the last report.
func runExperiment(b *testing.B, id string) eval.Report {
	b.Helper()
	e, err := eval.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var report eval.Report
	for i := 0; i < b.N; i++ {
		report, err = e.Run(eval.SmallScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	return report
}

// cellPct parses a rendered percentage cell ("94.7%") to a float.
func cellPct(b *testing.B, cell string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		b.Fatalf("parse %q: %v", cell, err)
	}
	return v
}

// BenchmarkE1HeadlineLatency regenerates the E1 table (latency by
// system) and reports the headline latency reduction of the full
// pipeline.
func BenchmarkE1HeadlineLatency(b *testing.B) {
	report := runExperiment(b, "E1")
	for _, row := range report.Rows {
		if row[0] == "approx (full, 2 peers)" {
			b.ReportMetric(cellPct(b, row[len(row)-1]), "reduction-%")
		}
	}
}

// BenchmarkE2ThresholdSweep regenerates the accuracy-vs-threshold series
// and reports the accuracy at the default operating point (0.25).
func BenchmarkE2ThresholdSweep(b *testing.B) {
	report := runExperiment(b, "E2")
	for _, row := range report.Rows {
		if row[0] == "0.25" {
			b.ReportMetric(cellPct(b, row[3]), "accuracy-%")
		}
	}
}

// BenchmarkE3HitBreakdown regenerates the per-source hit table and
// reports the stationary-heavy IMU share.
func BenchmarkE3HitBreakdown(b *testing.B) {
	report := runExperiment(b, "E3")
	for _, row := range report.Rows {
		if row[0] == "stationary-heavy" {
			b.ReportMetric(cellPct(b, row[1]), "imu-share-%")
		}
	}
}

// BenchmarkE4PeerSweep regenerates the peers series and reports the
// 8-peer hit rate.
func BenchmarkE4PeerSweep(b *testing.B) {
	report := runExperiment(b, "E4")
	last := report.Rows[len(report.Rows)-1]
	b.ReportMetric(cellPct(b, last[3]), "hit-rate-%")
}

// BenchmarkE5CapacitySweep regenerates the capacity×policy table and
// reports the smallest-capacity cost-aware hit rate.
func BenchmarkE5CapacitySweep(b *testing.B) {
	report := runExperiment(b, "E5")
	for _, row := range report.Rows {
		if row[0] == "8" && row[1] == "cost-aware" {
			b.ReportMetric(cellPct(b, row[2]), "hit-rate-%")
		}
	}
}

// BenchmarkE6Energy regenerates the energy table and reports the
// approx/no-cache energy ratio.
func BenchmarkE6Energy(b *testing.B) {
	report := runExperiment(b, "E6")
	var base, local float64
	for _, row := range report.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			b.Fatal(err)
		}
		switch row[0] {
		case "no-cache":
			base = v
		case "approx (local)":
			local = v
		}
	}
	if base > 0 {
		b.ReportMetric(local/base*100, "energy-ratio-%")
	}
}

// BenchmarkE7LSHAblation regenerates the LSH table and reports recall
// at the production point (12 bits × 4 tables).
func BenchmarkE7LSHAblation(b *testing.B) {
	report := runExperiment(b, "E7")
	for _, row := range report.Rows {
		if row[0] == "12" && row[1] == "4" {
			b.ReportMetric(cellPct(b, row[2]), "recall-%")
		}
	}
}

// BenchmarkE8MotionGate regenerates the inertial-threshold sweep and
// reports accuracy at the default scale (1.0).
func BenchmarkE8MotionGate(b *testing.B) {
	report := runExperiment(b, "E8")
	for _, row := range report.Rows {
		if row[0] == "1.00" {
			b.ReportMetric(cellPct(b, row[4]), "accuracy-%")
		}
	}
}

// BenchmarkE10ModelSweep regenerates the model-zoo table and reports
// the ResNet50-class latency reduction.
func BenchmarkE10ModelSweep(b *testing.B) {
	report := runExperiment(b, "E10")
	for _, row := range report.Rows {
		if row[0] == "resnet-50" {
			b.ReportMetric(cellPct(b, row[3]), "reduction-%")
		}
	}
}

// BenchmarkE11Robustness regenerates the degradation table and reports
// hard-perturbation accuracy on the stationary-heavy workload.
func BenchmarkE11Robustness(b *testing.B) {
	report := runExperiment(b, "E11")
	for _, row := range report.Rows {
		if row[0] == "stationary-heavy" && row[1] == "hard" {
			b.ReportMetric(cellPct(b, row[3]), "accuracy-%")
		}
	}
}

// BenchmarkE12LossyNetwork regenerates the degraded-link table and
// reports the 50%-loss hit rate.
func BenchmarkE12LossyNetwork(b *testing.B) {
	report := runExperiment(b, "E12")
	last := report.Rows[len(report.Rows)-1]
	b.ReportMetric(cellPct(b, last[3]), "hit-rate-%")
}

// BenchmarkE13Battery regenerates the battery table and reports the
// runtime multiplier on one charge.
func BenchmarkE13Battery(b *testing.B) {
	report := runExperiment(b, "E13")
	gain := strings.TrimSuffix(report.Rows[1][4], "×")
	v, err := strconv.ParseFloat(gain, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(v, "battery-gain-x")
}

// BenchmarkE14GateGrid regenerates the gate-ablation grid and reports
// the full stack's mean latency advantage over feature-cache-only.
func BenchmarkE14GateGrid(b *testing.B) {
	report := runExperiment(b, "E14")
	var full, featureOnly float64
	for _, row := range report.Rows {
		ms, err := strconv.ParseFloat(strings.TrimSuffix(row[len(row)-1], "ms"), 64)
		if err != nil {
			b.Fatal(err)
		}
		switch row[0] {
		case "full (4 keyframes)":
			full = ms
		case "feature cache only":
			featureOnly = ms
		}
	}
	if full > 0 {
		b.ReportMetric(featureOnly/full, "gate-speedup-x")
	}
}

// BenchmarkE15LatencyCDF regenerates the latency-distribution figure
// and reports the approx system's p95 (the edge of the reuse mass).
func BenchmarkE15LatencyCDF(b *testing.B) {
	report := runExperiment(b, "E15")
	for _, row := range report.Rows {
		if row[0] == "p95" {
			v, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "ms"), 64)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(v, "approx-p95-ms")
		}
	}
}

// BenchmarkE16DigestFilter regenerates the digest table and reports the
// traffic reduction factor.
func BenchmarkE16DigestFilter(b *testing.B) {
	report := runExperiment(b, "E16")
	noDig, err := strconv.ParseFloat(report.Rows[0][2], 64)
	if err != nil {
		b.Fatal(err)
	}
	dig, err := strconv.ParseFloat(report.Rows[1][2], 64)
	if err != nil {
		b.Fatal(err)
	}
	if dig > 0 {
		b.ReportMetric(noDig/dig, "traffic-reduction-x")
	}
}

// BenchmarkE17PeerChurn regenerates the churn table and reports the
// query-cost reduction of re-probing the peer set every round.
func BenchmarkE17PeerChurn(b *testing.B) {
	report := runExperiment(b, "E17")
	static, err := strconv.ParseFloat(strings.TrimSuffix(report.Rows[0][1], "ms"), 64)
	if err != nil {
		b.Fatal(err)
	}
	maintained, err := strconv.ParseFloat(strings.TrimSuffix(report.Rows[1][1], "ms"), 64)
	if err != nil {
		b.Fatal(err)
	}
	if maintained > 0 {
		b.ReportMetric(static/maintained, "cost-reduction-x")
	}
}

// BenchmarkE18ChaosResilience regenerates the chaos table and reports
// how much cheaper the guarded client's crash window is than the
// unguarded one's.
func BenchmarkE18ChaosResilience(b *testing.B) {
	report := runExperiment(b, "E18")
	guarded, err := strconv.ParseFloat(strings.TrimSuffix(report.Rows[0][1], "ms"), 64)
	if err != nil {
		b.Fatal(err)
	}
	unguarded, err := strconv.ParseFloat(strings.TrimSuffix(report.Rows[1][1], "ms"), 64)
	if err != nil {
		b.Fatal(err)
	}
	if guarded > 0 {
		b.ReportMetric(unguarded/guarded, "crash-cost-x")
	}
}

// BenchmarkE19DeviceFaults regenerates the device fault matrix and
// reports the accuracy the guarded sensor-fault rows hold relative to
// the clean baseline (≥ 1.0 means the guards gave nothing up).
func BenchmarkE19DeviceFaults(b *testing.B) {
	report := runExperiment(b, "E19")
	parsePct := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			b.Fatal(err)
		}
		return v
	}
	clean := parsePct(report.Rows[0][3])
	guardedStuck := parsePct(report.Rows[2][3])
	if clean > 0 {
		b.ReportMetric(guardedStuck/clean, "guarded-accuracy-x")
	}
}

// BenchmarkE20ServingThroughput regenerates the serving experiment and
// reports the batched pool's frames/sec advantage over the unbatched
// one.
func BenchmarkE20ServingThroughput(b *testing.B) {
	report := runExperiment(b, "E20")
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			b.Fatal(err)
		}
		return v
	}
	base := parse(report.Rows[0][1])
	batched := parse(report.Rows[len(report.Rows)-1][1])
	if base > 0 {
		b.ReportMetric(batched/base, "serving-speedup-x")
	}
}

// BenchmarkE21OverloadResilience regenerates the overload sweep and
// reports the protected node's goodput retention at the highest
// offered load (1.0 = no goodput lost to 4x overload).
func BenchmarkE21OverloadResilience(b *testing.B) {
	report := runExperiment(b, "E21")
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			b.Fatal(err)
		}
		return v
	}
	peak, atMax := 0.0, 0.0
	for _, row := range report.Rows {
		if row[0] != eval.OverloadResilient {
			continue
		}
		g := parse(row[3])
		if g > peak {
			peak = g
		}
		atMax = g // rows arrive in ascending load order
	}
	if peak > 0 {
		b.ReportMetric(atMax/peak, "goodput-retention")
	}
}

// BenchmarkE22LookupPipeline regenerates the lookup-bound comparison
// and reports the shipped index's speedup over a flat exact scan at
// 1 024 entries.
func BenchmarkE22LookupPipeline(b *testing.B) {
	report := runExperiment(b, "E22")
	b.ReportMetric(report.Data.(eval.LookupReport).Speedup, "lookup-speedup-x")
}

// BenchmarkE23DriftQuality regenerates the drift-quality run and
// reports the protected node's tail accuracy relative to the no-drift
// baseline (the accuracy-recovery gate metric).
func BenchmarkE23DriftQuality(b *testing.B) {
	report := runExperiment(b, "E23")
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			b.Fatal(err)
		}
		return v
	}
	acc := map[string]float64{}
	for _, row := range report.Rows {
		acc[row[0]] = parse(row[1])
	}
	if acc[eval.QualityBaseline] > 0 {
		b.ReportMetric(acc[eval.QualityProtected]/acc[eval.QualityBaseline], "accuracy-recovery")
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks: the real compute cost of each pipeline stage.
// ---------------------------------------------------------------------------

func benchImage(b *testing.B) *vision.Image {
	b.Helper()
	cs, err := vision.NewClassSet(4, 48, 48, 1)
	if err != nil {
		b.Fatal(err)
	}
	im, err := cs.Render(0, vision.DefaultPerturbation(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return im
}

// BenchmarkFeatureExtraction measures the cache-key computation.
func BenchmarkFeatureExtraction(b *testing.B) {
	im := benchImage(b)
	ex := feature.DefaultExtractor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Extract(im); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameDiff measures the video-locality gate's pixel diff.
func BenchmarkFrameDiff(b *testing.B) {
	a := benchImage(b)
	c := a.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vision.MeanAbsDiff(a, c)
	}
}

func benchVectors(n, dim int, seed int64) []feature.Vector {
	r := rand.New(rand.NewSource(seed))
	out := make([]feature.Vector, n)
	for i := range out {
		v := make(feature.Vector, dim)
		for d := range v {
			v[d] = r.NormFloat64()
		}
		v.Normalize()
		out[i] = v
	}
	return out
}

// BenchmarkLSHInsert measures index insertion.
func BenchmarkLSHInsert(b *testing.B) {
	vecs := benchVectors(1024, 80, 2)
	idx, err := lsh.NewHyperplane(80, 12, 4, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := idx.Insert(lsh.ID(i), vecs[i%len(vecs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLSHNearest measures an approximate lookup against a
// 1k-entry index.
func BenchmarkLSHNearest(b *testing.B) {
	vecs := benchVectors(1024, 80, 4)
	idx, err := lsh.NewHyperplane(80, 12, 4, 5)
	if err != nil {
		b.Fatal(err)
	}
	for i, v := range vecs {
		if err := idx.Insert(lsh.ID(i), v); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.Nearest(vecs[i%len(vecs)], 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactNearest is the linear-scan baseline for the same
// lookup.
func BenchmarkExactNearest(b *testing.B) {
	vecs := benchVectors(1024, 80, 6)
	idx, err := lsh.NewExact(80)
	if err != nil {
		b.Fatal(err)
	}
	for i, v := range vecs {
		if err := idx.Insert(lsh.ID(i), v); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.Nearest(vecs[i%len(vecs)], 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDigestBuild measures peer-coverage digest construction over
// a full cache snapshot.
func BenchmarkDigestBuild(b *testing.B) {
	vecs := benchVectors(256, 80, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p2p.BuildDigest(vecs, 0.25, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkActivityClassify measures motion-regime inference over a
// full 2 s window.
func BenchmarkActivityClassify(b *testing.B) {
	gen, err := imu.NewGenerator(100, 3)
	if err != nil {
		b.Fatal(err)
	}
	samples, err := gen.Generate(imu.Walking, 0, 2*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	ac, err := imu.NewActivityClassifier(imu.DefaultActivityConfig())
	if err != nil {
		b.Fatal(err)
	}
	ac.ObserveAll(samples)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r, _ := ac.Classify(); r != imu.Walking {
			b.Fatal("misclassified benchmark window")
		}
	}
}

// BenchmarkCodecRoundTrip measures peer-message encode+decode.
func BenchmarkCodecRoundTrip(b *testing.B) {
	vec := benchVectors(1, 80, 7)[0]
	msg := p2p.Query{Vec: vec, K: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := p2p.Encode(msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p2p.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineReuseHit measures the real compute of a gate-served
// frame (the fast path the latency claims rest on).
func BenchmarkPipelineReuseHit(b *testing.B) {
	spec := approxcache.StationaryHeavyWorkload(64, 1)
	w, err := approxcache.GenerateWorkload(spec)
	if err != nil {
		b.Fatal(err)
	}
	clf, err := approxcache.NewSimulatedClassifier(approxcache.MobileNetV2, w, 1)
	if err != nil {
		b.Fatal(err)
	}
	cache, err := approxcache.New(clf, approxcache.Options{
		Clock:          approxcache.NewVirtualClock(),
		MaxReuseStreak: -1, // keep every iteration on the reuse path
	})
	if err != nil {
		b.Fatal(err)
	}
	frame := w.Frames[0]
	win := w.IMUWindow(0, time.Second)
	if _, err := cache.Process(frame.Image, win); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cache.Process(frame.Image, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Source == approxcache.SourceDNN {
			b.Fatal("fast path fell through to DNN")
		}
	}
}

// BenchmarkPipelineColdMiss measures the real compute of a full miss
// (feature extraction + lookup + simulated inference bookkeeping).
func BenchmarkPipelineColdMiss(b *testing.B) {
	spec := approxcache.StationaryHeavyWorkload(64, 2)
	w, err := approxcache.GenerateWorkload(spec)
	if err != nil {
		b.Fatal(err)
	}
	clf, err := approxcache.NewSimulatedClassifier(approxcache.MobileNetV2, w, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cache, err := approxcache.New(clf, approxcache.Options{
			Clock: approxcache.NewVirtualClock(),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := cache.Process(w.Frames[0].Image, nil); err != nil {
			b.Fatal(err)
		}
	}
}
