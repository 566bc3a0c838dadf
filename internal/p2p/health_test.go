package p2p

import (
	"math"
	"testing"
	"time"
)

func TestHealthTrackerCounts(t *testing.T) {
	var h health
	h.observe(10*time.Millisecond, ErrClassNone)
	h.observe(12*time.Millisecond, ErrClassTimeout)
	h.observe(8*time.Millisecond, ErrClassLost)
	ph := h.snapshot("p", StateClosed)
	if ph.Peer != "p" || ph.Successes != 1 || ph.Failures != 2 || ph.ConsecFailures != 2 {
		t.Fatalf("counts = %+v", ph)
	}
	if ph.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", ph.Timeouts)
	}
	if ph.LastClass != ErrClassLost {
		t.Fatalf("last class = %v, want lost", ph.LastClass)
	}
	h.observe(10*time.Millisecond, ErrClassNone)
	if ph = h.snapshot("p", StateClosed); ph.ConsecFailures != 0 {
		t.Fatalf("success did not reset consecutive failures: %d", ph.ConsecFailures)
	}
}

func TestHealthTrackerEWMA(t *testing.T) {
	var h health
	// First sample initializes the EWMAs directly.
	h.observe(10*time.Millisecond, ErrClassNone)
	if ph := h.snapshot("p", StateClosed); ph.LatencyEWMA != 10*time.Millisecond || ph.SuccessEWMA != 1 {
		t.Fatalf("after first sample: %+v", ph)
	}
	// Second sample blends at α = 0.3: latency 10 + 0.3·(20−10) = 13 ms,
	// success 1 + 0.3·(0−1) = 0.7.
	h.observe(20*time.Millisecond, ErrClassTimeout)
	ph := h.snapshot("p", StateClosed)
	if d := ph.LatencyEWMA - 13*time.Millisecond; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("latency EWMA = %v, want 13ms", ph.LatencyEWMA)
	}
	if math.Abs(ph.SuccessEWMA-0.7) > 1e-9 {
		t.Fatalf("success EWMA = %v, want 0.7", ph.SuccessEWMA)
	}
}
