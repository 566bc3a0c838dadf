package eval

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"approxcache/internal/core"
	"approxcache/internal/metrics"
	"approxcache/internal/trace"
)

// The exact-percentile tests below came from internal/metrics with the
// sorted-slice recorder they pin (its LatencyRecorder is a histogram
// now and keeps the same tests at one-sub-bucket tolerance).

func TestExactRecorderEmpty(t *testing.T) {
	var r exactRecorder
	if r.percentile(50) != 0 || r.summary() != (metrics.LatencySummary{}) {
		t.Fatal("empty recorder not zeroed")
	}
}

func TestExactRecorderStats(t *testing.T) {
	var r exactRecorder
	for i := 1; i <= 100; i++ {
		r.record(time.Duration(i) * time.Millisecond)
	}
	for p, want := range map[float64]time.Duration{0: 1, 50: 50, 90: 90, 100: 100} {
		if got := r.percentile(p); got != want*time.Millisecond {
			t.Fatalf("P%v = %v", p, got)
		}
	}
	want := metrics.LatencySummary{
		Count: 100, Mean: 50500 * time.Microsecond,
		P50: 50 * time.Millisecond, P90: 90 * time.Millisecond, P99: 99 * time.Millisecond,
		Max: 100 * time.Millisecond,
	}
	if s := r.summary(); s != want {
		t.Fatalf("summary = %+v", s)
	}
}

func TestExactRecorderNegativeClampedAndResorted(t *testing.T) {
	var r exactRecorder
	r.record(3 * time.Millisecond)
	_ = r.percentile(50) // forces sort
	r.record(1 * time.Millisecond)
	r.record(-time.Second)
	if p := r.percentile(0); p != 0 {
		t.Fatalf("min after re-record = %v", p)
	}
	if p := r.percentile(50); p != time.Millisecond {
		t.Fatalf("P50 after re-record = %v", p)
	}
}

// percentile matches a straightforward nearest-rank reference.
func TestExactRecorderAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var r exactRecorder
	var ref []time.Duration
	for i := 0; i < 137; i++ {
		d := time.Duration(rng.Intn(1000)) * time.Millisecond
		r.record(d)
		ref = append(ref, d)
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	for _, p := range []float64{10, 25, 50, 75, 95} {
		rank := int(p/100*float64(len(ref))+0.5) - 1
		if rank < 0 {
			rank = 0
		}
		if got := r.percentile(p); got != ref[rank] {
			t.Fatalf("P%v = %v, ref %v", p, got, ref[rank])
		}
	}
}

// A replayed device's exact recorder and its engine's histogram saw the
// same frames: exact fields agree, percentiles within one sub-bucket.
func TestDeviceRecorderMatchesEngineHistogram(t *testing.T) {
	dev, err := runSingle(deviceConfig{
		Name: "main", Spec: trace.StationaryHeavy(300, 7), Engine: core.DefaultConfig(), Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	exact, hist := dev.lat.summary(), dev.engine.Stats().Latency().Summary()
	if exact.Count != 300 || hist.Count != exact.Count || hist.Mean != exact.Mean || hist.Max != exact.Max {
		t.Fatalf("exact %+v vs histogram %+v", exact, hist)
	}
	for _, pair := range [][2]time.Duration{{hist.P50, exact.P50}, {hist.P90, exact.P90}, {hist.P99, exact.P99}} {
		if pair[0] < pair[1] || pair[0]-pair[1] > pair[1]/16 {
			t.Fatalf("histogram percentile %v vs exact %v", pair[0], pair[1])
		}
	}
}
