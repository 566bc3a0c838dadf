package eval

import (
	"errors"
	"strings"
	"testing"
	"time"

	"approxcache/internal/metrics"
)

func TestDurPctMS(t *testing.T) {
	if got := durPctMS(nil, 99); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	sorted := []time.Duration{time.Millisecond, 2 * time.Millisecond, 10 * time.Millisecond}
	if got := durPctMS(sorted, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := durPctMS(sorted, 100); got != 10 {
		t.Fatalf("p100 = %v", got)
	}
}

// Goodput counts only fresh answers inside the deadline: a shed or
// fallback answer from the ladder is degraded however fast it came.
func TestOverloadTallyCountsFreshAnswersOnly(t *testing.T) {
	in, late := overloadDeadline/2, 2*overloadDeadline
	var pt OverloadPoint
	pt.tally([]overloadOutcome{
		{latency: in, source: metrics.SourceDNN},
		{latency: in, source: metrics.SourceLocal},
		{latency: late, source: metrics.SourceDNN},
		{latency: in, source: metrics.SourceShed},
		{latency: in, source: metrics.SourceFallback},
		{latency: in, source: metrics.SourceFallback},
		{latency: in, err: errors.New("refused")},
	}, time.Second)
	if pt.Good != 2 || pt.Shed != 1 || pt.Fallback != 2 || pt.Errors != 1 || pt.GoodputRPS != 2 {
		t.Fatalf("good=%d shed=%d fallback=%d errors=%d goodput=%v, want 2/1/2/1/2",
			pt.Good, pt.Shed, pt.Fallback, pt.Errors, pt.GoodputRPS)
	}
	if pt.P99MS != float64(late)/float64(time.Millisecond) {
		t.Fatalf("p99 = %v ms, want the late answer's %v", pt.P99MS, late)
	}
}

// TestE21Small runs the registered experiment at small scale. Like
// E20, it sleeps real accelerator occupancy and offers real wall-clock
// load, so it is skipped under -short.
func TestE21Small(t *testing.T) {
	if testing.Short() {
		t.Skip("E21 offers real wall-clock load")
	}
	rep := E21Overload(smallScale())
	if want := 2 * len(overloadLoads); len(rep.Rows) != want {
		t.Fatalf("%d rows, want %d", len(rep.Rows), want)
	}
	var foundRetention bool
	for _, n := range rep.Notes {
		if strings.Contains(n, "retention") {
			foundRetention = true
		}
	}
	if !foundRetention {
		t.Fatalf("notes missing retention: %v", rep.Notes)
	}
	for _, row := range rep.Rows {
		if row[0] != overloadResilient && row[0] != overloadUnprotected {
			t.Fatalf("unknown mode in row: %v", row)
		}
	}
}
