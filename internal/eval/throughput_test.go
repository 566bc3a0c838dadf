package eval

import (
	"strings"
	"testing"
	"time"

	"approxcache/internal/dnn"
)

// fastThroughputConfig keeps the saturation harness test-sized: few
// streams, few frames, and a near-zero occupancy scale so real sleeps
// stay in the microseconds.
func fastThroughputConfig() ThroughputConfig {
	return ThroughputConfig{
		Streams: 4,
		Frames:  6,
		Classes: 8,
		Seed:    42,
		Scale:   1.0 / 2000,
		Batcher: dnn.BatcherConfig{MaxBatch: 4, MaxWait: time.Millisecond},
	}
}

func TestThroughputModeUnknown(t *testing.T) {
	if _, err := RunThroughputMode(fastThroughputConfig(), "warp-drive"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestThroughputModesRun(t *testing.T) {
	cfg := fastThroughputConfig()
	for _, mode := range ThroughputModes() {
		res, err := RunThroughputMode(cfg, mode)
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		if res.Mode != mode {
			t.Fatalf("mode label %q, want %q", res.Mode, mode)
		}
		if want := cfg.Streams * cfg.Frames; res.Frames != want {
			t.Fatalf("mode %s processed %d frames, want %d", mode, res.Frames, want)
		}
		if res.FPS <= 0 || res.WallMS <= 0 {
			t.Fatalf("mode %s has degenerate timing: %+v", mode, res)
		}
		if res.P50MS > res.P95MS || res.P95MS > res.P99MS {
			t.Fatalf("mode %s percentiles not monotone: %+v", mode, res)
		}
		if res.DNNFrames == 0 {
			t.Fatalf("mode %s never ran the DNN", mode)
		}
		switch mode {
		case ModePool:
			if res.Batcher != nil {
				t.Fatalf("unbatched mode reported batcher stats: %+v", res)
			}
		case ModePoolBatched:
			if res.Batcher == nil || res.Batcher.Frames == 0 {
				t.Fatalf("batched mode missing batcher stats: %+v", res)
			}
		}
	}
}

func TestThroughputReport(t *testing.T) {
	rep, err := RunThroughput(fastThroughputConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(ThroughputModes()) {
		t.Fatalf("%d results, want %d", len(rep.Results), len(ThroughputModes()))
	}
	if rep.Speedup <= 0 {
		t.Fatalf("speedup = %v, want > 0", rep.Speedup)
	}
	if rep.Streams != 4 || rep.Frames != 6 || rep.MaxBatch != 4 {
		t.Fatalf("report header wrong: %+v", rep)
	}
}

func TestThroughputDefaults(t *testing.T) {
	var cfg ThroughputConfig
	cfg.defaults()
	if cfg.Streams != 16 || cfg.Frames != 30 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.Batcher.MaxBatch != 16 || cfg.Batcher.MaxWait != 5*time.Millisecond {
		t.Fatalf("batcher defaults = %+v", cfg.Batcher)
	}
	if cfg.MaxReuseStreak != 2 || cfg.Scale != 1.0/15 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

// TestE20Small runs the registered experiment at small scale. The
// small-scale path still sleeps real accelerator time, so this is the
// slowest test in the package — but it is the only end-to-end check
// that the experiment table renders.
func TestE20Small(t *testing.T) {
	if testing.Short() {
		t.Skip("E20 sleeps real accelerator occupancy")
	}
	rep, err := E20Throughput(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(ThroughputModes()) {
		t.Fatalf("%d rows, want %d", len(rep.Rows), len(ThroughputModes()))
	}
	var foundSpeedup bool
	for _, n := range rep.Notes {
		if strings.Contains(n, "speedup") {
			foundSpeedup = true
		}
	}
	if !foundSpeedup {
		t.Fatalf("notes missing speedup: %v", rep.Notes)
	}
}
