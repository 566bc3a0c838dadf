package p2p

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/simnet"
)

// The circuit runs at the fixed policy: 3 failures trip it, the first
// open interval is 250 ms ± 20 % (200–300 ms), and each failed probe
// doubles it up to 10 s.

var t0 = time.Unix(0, 0)

// trip fails a closed circuit three times at now.
func trip(t *testing.T, c *circuit, now time.Time, rng *rand.Rand) {
	t.Helper()
	for i := 0; i < failureThreshold; i++ {
		if got := c.onFailure(now, rng); got != (i == failureThreshold-1) {
			t.Fatalf("failure %d: tripped = %v", i+1, got)
		}
	}
}

func TestBreakerTripsAfterConsecutiveFailures(t *testing.T) {
	var c circuit
	if !c.allow(t0) {
		t.Fatal("fresh peer not allowed")
	}
	trip(t, &c, t0, rand.New(rand.NewSource(1)))
	if c.allow(t0) {
		t.Fatal("open circuit allowed traffic")
	}
	if got := c.read(t0); got != StateOpen {
		t.Fatalf("state = %v, want open", got)
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	var c circuit
	rng := rand.New(rand.NewSource(1))
	c.onFailure(t0, rng)
	c.onFailure(t0, rng)
	if c.onSuccess() {
		t.Fatal("success on a closed circuit counted as a recovery")
	}
	if c.onFailure(t0, rng) || c.onFailure(t0, rng) {
		t.Fatal("tripped before threshold after a reset")
	}
	if got := c.read(t0); got != StateClosed {
		t.Fatalf("state = %v, want closed", got)
	}
}

func TestBreakerHalfOpenProbeAndRecovery(t *testing.T) {
	var c circuit
	trip(t, &c, t0, rand.New(rand.NewSource(1)))
	if c.allow(t0.Add(199 * time.Millisecond)) {
		t.Fatal("open circuit allowed before backoff")
	}
	now := t0.Add(301 * time.Millisecond)
	if got := c.read(now); got != StateHalfOpen {
		t.Fatalf("state after backoff = %v, want half-open", got)
	}
	// admits only looks: asking twice still leaves the probe unclaimed.
	if !c.admits(now) || !c.admits(now) || !c.allow(now) {
		t.Fatal("half-open did not admit a probe")
	}
	if c.admits(now) || c.allow(now) {
		t.Fatal("second concurrent probe admitted")
	}
	if !c.onSuccess() {
		t.Fatal("probe success did not count as recovery")
	}
	if got := c.read(now); got != StateClosed {
		t.Fatalf("state after recovery = %v, want closed", got)
	}
}

func TestBreakerFailedProbeDoublesBackoff(t *testing.T) {
	var c circuit
	rng := rand.New(rand.NewSource(1))
	trip(t, &c, t0, rng)
	now := t0.Add(301 * time.Millisecond)
	if !c.allow(now) {
		t.Fatal("no probe admitted")
	}
	if !c.onFailure(now, rng) {
		t.Fatal("failed probe did not re-trip")
	}
	// Backoff doubled to 500 ms ± 20 %: still open after 399 ms...
	if c.allow(now.Add(399 * time.Millisecond)) {
		t.Fatal("re-opened circuit allowed before doubled backoff")
	}
	// ...but after 601 ms a probe is admitted again.
	if !c.allow(now.Add(601 * time.Millisecond)) {
		t.Fatal("no probe after doubled backoff")
	}
}

func TestBreakerBackoffCapped(t *testing.T) {
	var c circuit
	rng := rand.New(rand.NewSource(1))
	now := t0
	trip(t, &c, now, rng)
	// Fail many probes; the backoff must stop doubling at 10 s, so a
	// probe is always admitted within 10 s + 20 %.
	for i := 0; i < 10; i++ {
		now = now.Add(maxBackoff * 6 / 5)
		if !c.allow(now) {
			t.Fatalf("probe %d not admitted within the capped backoff", i)
		}
		c.onFailure(now, rng)
		if c.backoff > maxBackoff {
			t.Fatalf("probe %d: backoff %v above the cap", i, c.backoff)
		}
	}
	if c.backoff != maxBackoff {
		t.Fatalf("backoff = %v, want the %v cap", c.backoff, maxBackoff)
	}
	if c.allow(now.Add(maxBackoff*4/5 - time.Millisecond)) {
		t.Fatal("capped backoff shorter than 10 s - 20 %")
	}
}

// TestBreakerOpenListsTrippedPeers: the health snapshot names every
// tripped peer open and leaves the healthy one closed.
func TestBreakerOpenListsTrippedPeers(t *testing.T) {
	cl, _, net, _ := newResilientCluster(t, 3)
	net.Crash("peer-b")
	net.Crash("peer-a")
	for i := 0; i < failureThreshold; i++ {
		cl.QueryFrame(feature.Vector{1, float64(i)}, 0)
	}
	want := map[string]BreakerState{"peer-a": StateOpen, "peer-b": StateOpen, "peer-c": StateClosed}
	snap := cl.Health()
	if len(snap.Peers) != len(want) || snap.Trips != 2 {
		t.Fatalf("snapshot = %+v, want 3 peers and 2 trips", snap)
	}
	for _, ph := range snap.Peers {
		if ph.State != want[ph.Peer] {
			t.Fatalf("%s state = %v, want %v", ph.Peer, ph.State, want[ph.Peer])
		}
	}
}

func TestBreakerDisabled(t *testing.T) {
	cl, _, net, _ := newResilientCluster(t, 1, func(c *ClientConfig) { c.DisableBreaker = true })
	net.Crash("peer-a")
	for i := 0; i < 10; i++ {
		out, err := cl.QueryFrame(feature.Vector{1, float64(i)}, 0)
		if err != nil || out.Queried != 1 || out.Degraded {
			t.Fatalf("query %d through a disabled breaker: %+v, %v", i, out, err)
		}
	}
	snap := cl.Health()
	if snap.Trips != 0 || snap.Degraded || snap.Peers[0].State != StateClosed || snap.Peers[0].Failures != 10 {
		t.Fatalf("disabled breaker snapshot = %+v", snap)
	}
}

func TestBreakerJitterStaysInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seen := map[time.Time]bool{}
	for i := 0; i < 50; i++ {
		var c circuit
		trip(t, &c, t0, rng)
		// The open interval lies within [200 ms, 300 ms].
		if c.allow(t0.Add(199 * time.Millisecond)) {
			t.Fatal("allowed below jitter lower bound")
		}
		seen[c.openUntil] = true
		if !c.allow(t0.Add(301 * time.Millisecond)) {
			t.Fatal("not allowed past jitter upper bound")
		}
	}
	if len(seen) < 40 {
		t.Fatalf("only %d distinct open intervals in 50 trips: jitter is not spreading", len(seen))
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want ErrClass
	}{
		{nil, ErrClassNone},
		{simnet.ErrLost, ErrClassLost},
		{fmt.Errorf("wrap: %w", simnet.ErrPartitioned), ErrClassUnreachable},
		{fmt.Errorf("wrap: %w", simnet.ErrCrashed), ErrClassUnreachable},
		{fmt.Errorf("wrap: %w", simnet.ErrUnknownNode), ErrClassUnreachable},
		{fmt.Errorf("budget: %w", ErrBudgetExceeded), ErrClassTimeout},
		{os.ErrDeadlineExceeded, ErrClassTimeout},
		{ErrTruncated, ErrClassBadResponse},
		{fmt.Errorf("decode: %w", ErrUnknownKind), ErrClassBadResponse},
		{errors.New("anything else"), ErrClassOther},
	}
	for i, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("case %d: Classify(%v) = %v, want %v", i, c.err, got, c.want)
		}
	}
}
