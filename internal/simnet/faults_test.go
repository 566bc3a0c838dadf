package simnet

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"approxcache/internal/simclock"
)

func TestCrashAndRestart(t *testing.T) {
	n, err := New(lossless(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", echoHandler("echo:")); err != nil {
		t.Fatal(err)
	}
	n.SetDeadCost(80 * time.Millisecond)
	n.Crash("b")
	if !n.crashed["b"] {
		t.Fatal("Crashed not reported")
	}
	if _, rtt, err := n.Call("a", "b", []byte("hi")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("call err = %v", err)
	} else if rtt != 80*time.Millisecond {
		t.Fatalf("crashed call cost %v, want dead cost", rtt)
	}
	if _, err := n.Send("a", "b", []byte("hi")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("send err = %v", err)
	}
	n.Restart("b")
	if n.crashed["b"] {
		t.Fatal("restart did not clear crash")
	}
	resp, _, err := n.Call("a", "b", []byte("hi"))
	if err != nil || string(resp) != "echo:hi" {
		t.Fatalf("post-restart call: %q, %v", resp, err)
	}
}

func TestCorruptResponses(t *testing.T) {
	n, err := New(lossless(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", echoHandler("")); err != nil {
		t.Fatal(err)
	}
	n.SetCorrupt("b", true)
	resp, _, err := n.Call("a", "b", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(resp, []byte("hi")) {
		t.Fatal("corrupt node returned clean payload")
	}
	n.SetCorrupt("b", false)
	resp, _, err = n.Call("a", "b", []byte("hi"))
	if err != nil || !bytes.Equal(resp, []byte("hi")) {
		t.Fatalf("post-clear call: %q, %v", resp, err)
	}
}

func TestNodeFaultAddsLatency(t *testing.T) {
	n, err := New(lossless(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", echoHandler("")); err != nil {
		t.Fatal(err)
	}
	_, base, err := n.Call("a", "b", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetNodeFault("b", 50*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	_, spiked, err := n.Call("a", "b", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	// The spike applies per direction, so the RTT grows by ≥ 2×50 ms.
	if spiked < base+100*time.Millisecond {
		t.Fatalf("spiked rtt %v not ≥ base %v + 100ms", spiked, base)
	}
	if err := n.SetNodeFault("b", 0, 0); err != nil {
		t.Fatal(err)
	}
	_, cleared, err := n.Call("a", "b", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if cleared >= spiked {
		t.Fatalf("clearing fault did not restore latency: %v", cleared)
	}
	if err := n.SetNodeFault("b", -time.Second, 0); err == nil {
		t.Fatal("negative fault accepted")
	}
}

func TestLinkFaultIsDirected(t *testing.T) {
	n, err := New(lossless(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Register("a", echoHandler("")); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", echoHandler("")); err != nil {
		t.Fatal(err)
	}
	if err := n.SetLinkFault("a", "b", 40*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	// One-way sends isolate direction: only a→b pays the 40 ms penalty.
	ab, err := n.Send("a", "b", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	ba, err := n.Send("b", "a", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if ab < 40*time.Millisecond {
		t.Fatalf("faulted direction cost %v, want ≥ 40ms", ab)
	}
	if ba >= 40*time.Millisecond {
		t.Fatalf("reverse direction cost %v also degraded", ba)
	}
	if err := n.SetLinkFault("a", "b", 0, 0); err != nil {
		t.Fatal(err)
	}
	cleared, err := n.Send("a", "b", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if cleared >= 40*time.Millisecond {
		t.Fatalf("cleared link still slow: %v", cleared)
	}
}

func TestFaultLossBurstLosesTraffic(t *testing.T) {
	n, err := New(lossless(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", echoHandler("")); err != nil {
		t.Fatal(err)
	}
	// Even absurd injected loss stays a valid probability (< 1).
	if err := n.SetNodeFault("b", 0, 5.0); err != nil {
		t.Fatal(err)
	}
	losses := 0
	for i := 0; i < 50; i++ {
		if _, _, err := n.Call("a", "b", []byte("x")); errors.Is(err, ErrLost) {
			losses++
		}
	}
	if losses < 45 {
		t.Fatalf("only %d/50 calls lost under near-certain loss", losses)
	}
}

func TestFaultEventValidate(t *testing.T) {
	good := FaultPlan{
		{At: 0, Kind: FaultCrash, Node: "a"},
		{At: time.Second, Kind: FaultRestart, Node: "a"},
		{At: 0, Kind: FaultPartition, A: "a", B: "b"},
		{At: 0, Kind: FaultHeal, A: "a", B: "b"},
		{At: 0, Kind: FaultLatencySpike, Node: "a", ExtraLatency: time.Millisecond},
		{At: 0, Kind: FaultLossBurst, Node: "a", ExtraLoss: 0.5},
		{At: 0, Kind: FaultCorrupt, Node: "a"},
		{At: 0, Kind: FaultClear, Node: "a"},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []FaultEvent{
		{At: -time.Second, Kind: FaultCrash, Node: "a"},
		{Kind: FaultCrash},
		{Kind: FaultPartition, A: "a"},
		{Kind: FaultLatencySpike, Node: "a", ExtraLatency: -1},
		{Kind: FaultKind(99), Node: "a"},
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("bad event %d accepted", i)
		}
	}
}

func TestFaultSchedulerReplaysPlan(t *testing.T) {
	n, err := New(lossless(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", echoHandler("")); err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewVirtual(time.Unix(0, 0))
	plan := FaultPlan{
		{At: 200 * time.Millisecond, Kind: FaultRestart, Node: "b"},
		{At: 100 * time.Millisecond, Kind: FaultCrash, Node: "b"},
	}
	sched, err := NewFaultScheduler(n, clock, plan)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Tick() != 0 || n.crashed["b"] {
		t.Fatal("events fired before their offsets")
	}
	clock.Advance(150 * time.Millisecond)
	if got := sched.Tick(); got != 1 {
		t.Fatalf("tick applied %d events, want 1", got)
	}
	if !n.crashed["b"] {
		t.Fatal("crash event not applied")
	}
	if sched.next == len(sched.plan) {
		t.Fatal("scheduler done with events pending")
	}
	clock.Advance(100 * time.Millisecond)
	if got := sched.Tick(); got != 1 {
		t.Fatalf("second tick applied %d events, want 1", got)
	}
	if n.crashed["b"] {
		t.Fatal("restart event not applied")
	}
	if sched.next != len(sched.plan) {
		t.Fatal("scheduler not done after final event")
	}
	if sched.Tick() != 0 {
		t.Fatal("drained scheduler re-applied events")
	}
}

func TestFaultSchedulerSameOffsetOrder(t *testing.T) {
	n, err := New(lossless(), 1)
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewVirtual(time.Unix(0, 0))
	// Same offset: declared order must hold (crash then restart nets
	// out to up).
	plan := FaultPlan{
		{At: 10 * time.Millisecond, Kind: FaultCrash, Node: "b"},
		{At: 10 * time.Millisecond, Kind: FaultRestart, Node: "b"},
	}
	sched, err := NewFaultScheduler(n, clock, plan)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(20 * time.Millisecond)
	if got := sched.Tick(); got != 2 {
		t.Fatalf("tick applied %d events, want 2", got)
	}
	if n.crashed["b"] {
		t.Fatal("same-offset events applied out of declared order")
	}
}

func TestFaultSchedulerValidation(t *testing.T) {
	n, err := New(lossless(), 1)
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewVirtual(time.Unix(0, 0))
	if _, err := NewFaultScheduler(nil, clock, nil); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := NewFaultScheduler(n, nil, nil); err == nil {
		t.Fatal("nil clock accepted")
	}
	if _, err := NewFaultScheduler(n, clock, FaultPlan{{Kind: FaultCrash}}); err == nil {
		t.Fatal("invalid plan accepted")
	}
}
