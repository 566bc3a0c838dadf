// Package simclock provides a clock abstraction with a deterministic
// virtual implementation for experiments and a wall-clock implementation
// for live use.
//
// All latency accounting in the experiment harness advances a Virtual
// clock instead of sleeping, so a multi-minute device trace replays in
// milliseconds while producing exact, reproducible timing results.
package simclock

import (
	"sync"
	"time"
)

// Clock is the minimal time source used throughout approxcache.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Sleep advances time by d. On a virtual clock this is
	// instantaneous in wall time.
	Sleep(d time.Duration)
}

// Virtual is a deterministic, manually-advanced clock. The zero value is
// not usable; construct with NewVirtual. Virtual is safe for concurrent
// use.
type Virtual struct {
	mu  sync.Mutex
	now time.Time
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a virtual clock starting at start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Now returns the current virtual instant.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Sleep advances the virtual clock by d without blocking. Negative
// durations are ignored so that callers never move time backwards.
func (v *Virtual) Sleep(d time.Duration) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.now = v.now.Add(max(d, 0))
}

// Advance is an alias for Sleep that reads better at call sites that
// drive the clock rather than simulate waiting.
func (v *Virtual) Advance(d time.Duration) { v.Sleep(d) }

// Set moves the clock to t if t is later than the current instant.
func (v *Virtual) Set(t time.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if t.After(v.now) {
		v.now = t
	}
}

// Real is a Clock backed by the system wall clock.
type Real struct{}

var _ Clock = Real{}

// Now returns time.Now().
func (Real) Now() time.Time { return time.Now() }

// Sleep blocks for d using time.Sleep.
func (Real) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}
