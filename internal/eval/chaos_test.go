package eval

import (
	"testing"

	"approxcache/internal/p2p"
)

// TestChaosResilienceAcceptance is the robustness acceptance test: with
// every peer crashed mid-session, the guarded pipeline's mean frame
// latency must stay within 10% of the no-peers baseline, and after the
// scheduled heal the circuits must close and peer hits must resume,
// with the breaker activity visible in the session stats.
func TestChaosResilienceAcceptance(t *testing.T) {
	res, err := runChaos(Scale{Frames: 400, Seed: 42}, true)
	if err != nil {
		t.Fatal(err)
	}
	for p, name := range []string{"pre", "crash", "heal"} {
		if res.Baseline[p].Frames == 0 || res.Run[p].Frames == 0 {
			t.Fatalf("empty %s phase: baseline %d frames, run %d frames",
				name, res.Baseline[p].Frames, res.Run[p].Frames)
		}
	}

	// Peers must actually matter before the crash, or the test proves
	// nothing.
	if res.Run[phasePre].PeerHits == 0 {
		t.Fatal("no peer hits before the crash")
	}

	// Degradation bound: crash-window latency within 10% of no-peers.
	limit := res.Baseline[phaseCrash].Mean + res.Baseline[phaseCrash].Mean/10
	if res.Run[phaseCrash].Mean > limit {
		t.Fatalf("crash-window mean %v exceeds baseline %v + 10%%",
			res.Run[phaseCrash].Mean, res.Baseline[phaseCrash].Mean)
	}

	// Breaker activity must be visible in session stats.
	trips, recoveries := res.Stats.BreakerEvents()
	if trips == 0 {
		t.Fatal("no breaker trips recorded in session stats")
	}
	if recoveries == 0 {
		t.Fatal("no breaker recoveries recorded in session stats")
	}
	if res.Stats.DegradedFrames() == 0 {
		t.Fatal("no degraded frames recorded during the crash window")
	}

	// After the heal the circuits close and peer reuse resumes.
	if res.Run[phaseHeal].PeerHits == 0 {
		t.Fatal("peer hits did not resume after the heal")
	}
	for _, ph := range res.Health.Peers {
		if ph.State != p2p.StateClosed {
			t.Fatalf("peer %s circuit %v at end of run, want closed", ph.Peer, ph.State)
		}
	}
	if res.Health.Degraded {
		t.Fatal("client still degraded after the heal")
	}
}

// TestChaosUnguardedPaysDeadCost pins down what the resilience layer
// buys: with the breaker disabled and no frame budget, the same crash
// window keeps paying the dead-peer radio timeout on every P2P-gate
// frame and blows well past the baseline-plus-10% bound the guarded
// run meets.
func TestChaosUnguardedPaysDeadCost(t *testing.T) {
	res, err := runChaos(Scale{Frames: 240, Seed: 42}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run[phaseCrash].Frames == 0 {
		t.Fatal("empty crash phase")
	}
	limit := res.Baseline[phaseCrash].Mean + res.Baseline[phaseCrash].Mean/10
	if res.Run[phaseCrash].Mean <= limit {
		t.Fatalf("unguarded crash-window mean %v unexpectedly within baseline %v + 10%%",
			res.Run[phaseCrash].Mean, res.Baseline[phaseCrash].Mean)
	}
	if trips, _ := res.Stats.BreakerEvents(); trips != 0 {
		t.Fatalf("disabled breaker recorded %d trips", trips)
	}
}

// TestChaosPhasesSumToWorkload sanity-checks the windowing.
func TestChaosPhasesSumToWorkload(t *testing.T) {
	res, err := runChaos(Scale{Frames: 60, Seed: 7}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, phases := range [][chaosPhases]chaosPhase{res.Baseline, res.Run} {
		total := 0
		for _, p := range phases {
			total += p.Frames
		}
		if total != 60 {
			t.Fatalf("phases cover %d frames, want 60", total)
		}
	}
}
