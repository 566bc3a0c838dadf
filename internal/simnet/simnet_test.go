package simnet

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func lossless() LinkProfile {
	return LinkProfile{Latency: 5 * time.Millisecond, BandwidthBps: 1 << 20}
}

func echoHandler(prefix string) Handler {
	return func(from NodeID, req []byte) ([]byte, error) {
		return append([]byte(prefix), req...), nil
	}
}

func TestLinkProfileValidate(t *testing.T) {
	if err := DefaultLinkProfile().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []LinkProfile{
		{Latency: -1},
		{Jitter: -1},
		{LossProb: -0.1},
		{LossProb: 1},
		{BandwidthBps: -5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d accepted", i)
		}
	}
}

func TestNewRejectsBadDefault(t *testing.T) {
	if _, err := New(LinkProfile{LossProb: 1}, 1); err == nil {
		t.Fatal("bad default accepted")
	}
}

func TestRegisterValidation(t *testing.T) {
	n, err := New(lossless(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Register("", echoHandler("x")); err == nil {
		t.Fatal("empty id accepted")
	}
	if err := n.Register("a", nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestCallRoundTrip(t *testing.T) {
	n, err := New(lossless(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", echoHandler("echo:")); err != nil {
		t.Fatal(err)
	}
	resp, rtt, err := n.Call("a", "b", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:hi" {
		t.Fatalf("resp = %q", resp)
	}
	if rtt < 10*time.Millisecond {
		t.Fatalf("rtt %v below 2× propagation", rtt)
	}
}

func TestCallUnknownNode(t *testing.T) {
	n, err := New(lossless(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.Call("a", "ghost", nil); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v", err)
	}
	if _, err := n.Send("a", "ghost", nil); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("send err = %v", err)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	n, err := New(lossless(), 1)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := n.Register("b", func(NodeID, []byte) ([]byte, error) { return nil, boom }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.Call("a", "b", nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestLossyLinkEventuallyLoses(t *testing.T) {
	p := lossless()
	p.LossProb = 0.5
	n, err := New(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", echoHandler("")); err != nil {
		t.Fatal(err)
	}
	losses := 0
	for i := 0; i < 100; i++ {
		if _, _, err := n.Call("a", "b", []byte("x")); errors.Is(err, ErrLost) {
			losses++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if losses < 40 || losses > 95 {
		t.Fatalf("losses = %d/100, want ~75 (loss both directions)", losses)
	}
}

func TestTransmissionTimeScalesWithSize(t *testing.T) {
	p := LinkProfile{BandwidthBps: 1000} // 1 KB/s: 1000 bytes = 1 s
	n, err := New(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", func(NodeID, []byte) ([]byte, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	small, err := n.Send("a", "b", make([]byte, 10))
	if err != nil {
		t.Fatal(err)
	}
	big, err := n.Send("a", "b", make([]byte, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if big <= small || big < 900*time.Millisecond {
		t.Fatalf("transmission not size-proportional: small=%v big=%v", small, big)
	}
}

func TestSendDeliversPayload(t *testing.T) {
	n, err := New(lossless(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	var mu sync.Mutex
	if err := n.Register("b", func(from NodeID, req []byte) ([]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		got = append([]byte(nil), req...)
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Send("a", "b", []byte("gossip")); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if string(got) != "gossip" {
		t.Fatalf("payload = %q", got)
	}
}

func TestNodesAndUnregister(t *testing.T) {
	n, err := New(lossless(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := n.Register(NodeID(fmt.Sprintf("n%d", i)), echoHandler("")); err != nil {
			t.Fatal(err)
		}
	}
	if len(n.nodes) != 3 {
		t.Fatalf("nodes = %v", n.nodes)
	}
	n.Unregister("n1")
	if len(n.nodes) != 2 {
		t.Fatalf("nodes after unregister = %v", n.nodes)
	}
}

func TestDeadCost(t *testing.T) {
	n, err := New(lossless(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", echoHandler("")); err != nil {
		t.Fatal(err)
	}
	// Default: dead calls fail instantly.
	_, rtt, err := n.Call("a", "ghost", nil)
	if !errors.Is(err, ErrUnknownNode) || rtt != 0 {
		t.Fatalf("default dead call: rtt=%v err=%v", rtt, err)
	}
	n.SetDeadCost(100 * time.Millisecond)
	_, rtt, err = n.Call("a", "ghost", nil)
	if !errors.Is(err, ErrUnknownNode) || rtt != 100*time.Millisecond {
		t.Fatalf("dead call: rtt=%v err=%v", rtt, err)
	}
	if cost, err := n.Send("a", "ghost", nil); !errors.Is(err, ErrUnknownNode) || cost != 100*time.Millisecond {
		t.Fatalf("dead send: cost=%v err=%v", cost, err)
	}
	n.Crash("b")
	_, rtt, err = n.Call("a", "b", nil)
	if !errors.Is(err, ErrCrashed) || rtt != 100*time.Millisecond {
		t.Fatalf("crashed call: rtt=%v err=%v", rtt, err)
	}
	if cost, err := n.Send("a", "b", nil); !errors.Is(err, ErrCrashed) || cost != 100*time.Millisecond {
		t.Fatalf("crashed send: cost=%v err=%v", cost, err)
	}
	n.SetDeadCost(-time.Second) // clamps to 0
	if _, rtt, _ := n.Call("a", "ghost", nil); rtt != 0 {
		t.Fatalf("negative dead cost not clamped: %v", rtt)
	}
}

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
	if cost, err := n.Send("a", "b", []byte("hi")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("send err = %v", err)
	} else if cost != 80*time.Millisecond {
		t.Fatalf("crashed send cost %v, want dead cost", cost)
	}
	n.Restart("b")
	if n.crashed["b"] {
		t.Fatal("restart did not clear crash")
	}
	resp, _, err := n.Call("a", "b", []byte("hi"))
	if err != nil || string(resp) != "echo:hi" {
		t.Fatalf("post-restart call: %q, %v", resp, err)
	}
	if _, err := n.Send("a", "b", []byte("hi")); err != nil {
		t.Fatalf("post-restart send: %v", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	n, err := New(lossless(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", echoHandler("")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, _, err := n.Call("a", "b", []byte("x")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
