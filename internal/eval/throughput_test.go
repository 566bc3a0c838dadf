package eval

import (
	"strings"
	"sync"
	"testing"
)

// smallE20 runs E20 once at small scale for every test that reads it:
// the run sleeps real accelerator occupancy, which makes it the slowest
// in the package.
var smallE20 = sync.OnceValue(func() Report { return E20Throughput(smallScale()) })

// smallE20Report is E20's typed report from the shared small-scale run.
func smallE20Report(t *testing.T) ThroughputReport {
	t.Helper()
	if testing.Short() {
		t.Skip("E20 sleeps real accelerator occupancy")
	}
	data := smallE20().Data
	rep, ok := data.(ThroughputReport)
	if !ok {
		t.Fatalf("E20 data is %T, want ThroughputReport", data)
	}
	return rep
}

// TestThroughputReport checks E20's typed report header: the shape it
// ran, the speedup, and one result per mode, in order.
func TestThroughputReport(t *testing.T) {
	rep := smallE20Report(t)
	streams, frames := throughputShape(smallScale())
	if rep.Streams != streams || rep.Frames != frames || rep.MaxBatch != throughputBatcher.MaxBatch {
		t.Fatalf("report header wrong: %+v", rep)
	}
	if rep.Speedup <= 0 {
		t.Fatalf("speedup = %v, want > 0", rep.Speedup)
	}
	modes := []string{modePool, modePoolBatched}
	if len(rep.Results) != len(modes) {
		t.Fatalf("%d results, want %d", len(rep.Results), len(modes))
	}
	for i, mode := range modes {
		if rep.Results[i].Mode != mode {
			t.Fatalf("result %d is mode %q, want %q", i, rep.Results[i].Mode, mode)
		}
	}
}

// TestThroughputModesRun checks each mode's result in E20's report:
// every frame of every stream served with sane timing, the DNN ran, and
// only the batched mode carries batcher stats.
func TestThroughputModesRun(t *testing.T) {
	rep := smallE20Report(t)
	streams, frames := throughputShape(smallScale())
	if len(rep.Results) == 0 {
		t.Fatal("no mode results")
	}
	for _, res := range rep.Results {
		mode := res.Mode
		if want := streams * frames; res.Frames != want {
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
		if batched := res.Batcher != nil && res.Batcher.SizeSum > 0; batched != (mode == modePoolBatched) {
			t.Fatalf("mode %s batcher stats = %+v", mode, res.Batcher)
		}
	}
}

// TestE20Small checks the rendered E20 table: one row per mode and the
// speedup note.
func TestE20Small(t *testing.T) {
	if testing.Short() {
		t.Skip("E20 sleeps real accelerator occupancy")
	}
	rep := smallE20()
	if len(rep.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rep.Rows))
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
