package main

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"approxcache"
	"approxcache/internal/core"
	"approxcache/internal/dnn"
	"approxcache/internal/trace"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0, 10}, {50, 50}, {90, 90}, {99, 100}, {100, 100}} {
		if got := percentileNS(sorted, c.p); got != c.want {
			t.Errorf("percentileNS(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentileNS(nil, 50); got != 0 {
		t.Errorf("percentileNS(nil) = %d", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, since the acceptance runs
// compute the spread with it.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 9, 3}, 1.5, 8},
		{[]float64{2, 4}, 1.5, 4.5}, // extrapolates, as Python does
		{[]float64{10, 10.5, 9.5, 10.2, 9.9, 10.1, 30, 9.8, 10.3, 10}, 9.875, 10.35},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// TestAggregateSelfTime checks self = span minus children on a small
// hand-built tree: frame[0..1000] > store.nearest[100..500] >
// lsh.nearest[200..400].
func TestAggregateSelfTime(t *testing.T) {
	c := clockCostNS
	spans := []span{
		{op: opFrame, parent: -1, start: 0, end: 10000 + c},
		{op: opStNearest, parent: 0, start: 1000, end: 5000 + c},
		{op: opIdxNearest, parent: 1, start: 2000, end: 4000 + c},
	}
	agg := aggregate(spans)
	if got := agg[opIdxNearest]; got.calls != 1 || got.incl != 2000 || got.self != 2000 {
		t.Errorf("index span: %+v", got)
	}
	if got := agg[opStNearest]; got.incl != 4000 || got.self != 4000-2000-2*c {
		t.Errorf("store span: %+v (clock cost %d)", got, c)
	}
	if got := agg[opFrame]; got.incl != 10000 || got.self != 10000-4000-2*c {
		t.Errorf("frame span: %+v (clock cost %d)", got, c)
	}
}

// TestIMUWindowsMatchWorkload checks the windows sliced once in set-up
// against Workload.IMUWindow, which the examples call per frame.
func TestIMUWindowsMatchWorkload(t *testing.T) {
	spec, _ := workloadByName("device-video")
	in, err := generate(spec, 7, 120)
	if err != nil {
		t.Fatal(err)
	}
	for i, ts := range trace.StandardSpecs(120, subSeed(7, 1)) {
		w, err := trace.Generate(ts)
		if err != nil {
			t.Fatal(err)
		}
		stream := in.scenarios[i].streams[0]
		prev := time.Duration(0)
		for j, fr := range w.Frames {
			want := w.IMUWindow(prev, fr.Offset)
			prev = fr.Offset
			if len(want) == 0 && len(stream[j].win) == 0 {
				continue
			}
			if !reflect.DeepEqual(stream[j].win, want) {
				t.Fatalf("%s frame %d: window of %d samples, want %d", ts.Name, j, len(stream[j].win), len(want))
			}
		}
	}
}

// TestMemoMatchesLiveClassifier: the memo table is exactly what the
// live seeded classifier answers, frame by frame in trace order.
func TestMemoMatchesLiveClassifier(t *testing.T) {
	for _, name := range []string{"device-video", "peer-mesh"} {
		spec, _ := workloadByName(name)
		in, err := generate(spec, 3, 150)
		if err != nil {
			t.Fatal(err)
		}
		for i, sc := range in.scenarios {
			seed := sc.clfSeed
			if spec.videoTraces {
				seed = subSeed(3, 10+int64(i))
			}
			live, err := dnn.NewClassifier(profile, sc.classes, seed)
			if err != nil {
				t.Fatal(err)
			}
			err = sc.eachFrame(func(_ int, f frameIn) error {
				want, err := live.Infer(f.img)
				if err != nil {
					return err
				}
				got, err := sc.memo.Infer(f.img)
				if err != nil {
					return err
				}
				if got != want {
					return fmt.Errorf("memo %+v, live %+v", got, want)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, sc.name, err)
			}
		}
	}
}

func serveSystem(t *testing.T, spec workloadSpec, sc *scenario, rec *recorder) []core.Result {
	t.Helper()
	sys, err := build(spec, sc, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	out, err := serve(sc, func(s int, f frameIn) (core.Result, error) {
		return sys.engines[s].ProcessWithTruth(f.img, f.win, f.truth)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestHandAssembledMatchesFacade: on every workload the system built
// from the internal packages serves exactly what approxcache.New,
// JoinSimNetwork + ConnectAll and NewPool serve on the same inputs. It
// is the check every run makes (checkFacade), at a size where the mesh
// comparison includes peer-served frames.
func TestHandAssembledMatchesFacade(t *testing.T) {
	for _, spec := range workloads {
		in, err := generate(spec, 5, facadeFrames)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkFacade(in); err != nil {
			t.Errorf("%s: %v", spec.name, err)
		}
		if spec.kind != kindMesh {
			continue
		}
		peer := 0
		for _, r := range serveSystem(t, in.spec, in.scenarios[0].head(facadeFrames), nil) {
			if r.Source == approxcache.SourcePeer {
				peer++
			}
		}
		if peer == 0 {
			t.Error("no frame was served by a peer: the mesh comparison proves nothing")
		}
	}
}

// TestWrappedMatchesUnwrapped: with every seam wrapped, a device and a
// mesh serve exactly what they serve bare.
func TestWrappedMatchesUnwrapped(t *testing.T) {
	for _, name := range []string{"device-video", "photo-churn", "peer-mesh"} {
		spec, _ := workloadByName(name)
		in, err := generate(spec, 9, 300)
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecorder(spanBudget(in), false)
		for _, sc := range in.scenarios {
			rec.reset()
			want := serveSystem(t, in.spec, sc, nil)
			got := serveSystem(t, in.spec, sc, rec)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: wrapped system diverges from the bare one", name, sc.name)
			}
			if rec.n.Load() == 0 || rec.dropped.Load() != 0 {
				t.Errorf("%s/%s: %d spans recorded, %d dropped", name, sc.name, rec.n.Load(), rec.dropped.Load())
			}
		}
	}
}

// TestWorkloadsSmoke runs every workload end to end and traced at a
// small size: the run must be correct and report every declared metric.
func TestWorkloadsSmoke(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			rec, err := run(config{workload: w.name, seed: 11, seconds: 1, trace: trace, frames: 200, passes: 2})
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !rec.Correct {
				t.Errorf("%s trace=%d: incorrect: %v", w.name, trace, rec.Violations)
			}
			if rec.Attempted == 0 || rec.Failed != 0 {
				t.Errorf("%s trace=%d: attempted %d failed %d", w.name, trace, rec.Attempted, rec.Failed)
			}
			want := len(endToEnd)
			if trace == 1 {
				want = len(perLayer)
			}
			if len(rec.Metrics) != want {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(rec.Metrics), want)
			}
			if trace == 0 {
				for name, m := range rec.Metrics {
					if m.Value <= 0 || math.IsNaN(m.Value) {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, m.Value)
					}
				}
			}
		}
	}
	// 5-9 s on the reference host; not asserted, since the race detector
	// and a busy host both multiply it.
	t.Logf("smoke runs took %v", time.Since(start))
}

// TestTracedRunAttributesLayers: the traced table has the shape the
// workloads were chosen for.
func TestTracedRunAttributesLayers(t *testing.T) {
	value := func(rec *record, name string) float64 { return rec.Metrics[name].Value }
	video, err := run(config{workload: "device-video", seed: 2, seconds: 1, trace: 1, frames: 400, passes: 6})
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := run(config{workload: "peer-mesh", seed: 2, seconds: 1, trace: 1, frames: 400, passes: 6})
	if err != nil {
		t.Fatal(err)
	}
	if s := value(video, "imu.served_share") + value(video, "video.served_share"); s < 0.8 {
		t.Errorf("device-video: gates served %.2f of frames, want most", s)
	}
	if s := value(video, "feature.share") + value(video, "lsh.share") + value(video, "cachestore.share"); s > 0.2 {
		t.Errorf("device-video: feature+lsh+cachestore share %.2f, want small", s)
	}
	if value(video, "p2p.share") != 0 || value(video, "wire_bytes_per_frame") != 0 {
		t.Error("device-video reports p2p work")
	}
	if value(mesh, "p2p.share") <= 0 || value(mesh, "wire_bytes_per_frame") <= 0 || value(mesh, "p2p.peer_served_share") <= 0 {
		t.Error("peer-mesh reports no p2p work")
	}
	if value(video, "dnn.stub_ns") > 5000 {
		t.Errorf("memo classifier costs %.0f ns a call", value(video, "dnn.stub_ns"))
	}
}

// TestBenchmarkJSONMatchesHarness holds BENCHMARK.json and the harness
// together: same workloads, same metrics, same units and directions.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	bf, err := readBenchmarkFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, bf.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, have []benchmarkMetric, want []metricDef) {
		if len(have) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(have), len(want))
			return
		}
		for i, d := range want {
			if have[i].Name != d.name || have[i].Unit != d.unit || have[i].Better != d.better {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in the harness", kind, i, have[i], d)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}
