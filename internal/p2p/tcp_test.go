package p2p

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"approxcache/internal/feature"
)

func startServer(t *testing.T) (*TCPServer, *Service) {
	t.Helper()
	svc, err := NewService(DefaultServiceConfig("tcp-node"), newStore(t, 32))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ListenAndServe("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, svc
}

func newTCPClient(t *testing.T) *TCPTransport {
	t.Helper()
	tr, err := NewTCPTransport(time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return tr
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frames")
	if err := writeFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, payload) {
		t.Fatalf("frame = %q", out)
	}
}

func TestFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, make([]byte, MaxFrameSize+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Oversized declared length is rejected before allocation.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("oversized declared frame accepted")
	}
	// Truncated frame.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 10, 1, 2})
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestNewTCPTransportValidation(t *testing.T) {
	if _, err := NewTCPTransport(0, time.Second); err == nil {
		t.Fatal("zero dial timeout accepted")
	}
	if _, err := NewTCPTransport(time.Second, 0); err == nil {
		t.Fatal("zero io timeout accepted")
	}
}

func TestTCPQueryRoundTrip(t *testing.T) {
	srv, svc := startServer(t)
	if _, err := svc.store.Insert(feature.Vector{1, 0}, "cat", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	tr := newTCPClient(t)
	cl, err := NewClient(DefaultClientConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetPeers([]string{srv.Addr()})
	out, err := cl.QueryFrame(feature.Vector{1, 0.01}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found || out.Hit.Label != "cat" {
		t.Fatalf("hit = %+v found=%v", out.Hit, out.Found)
	}
	if out.Cost <= 0 {
		t.Fatalf("rtt = %v", out.Cost)
	}
}

func TestTCPGossipAndPing(t *testing.T) {
	srv, svc := startServer(t)
	tr := newTCPClient(t)
	cl, err := NewClient(DefaultClientConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetPeers([]string{srv.Addr()})
	if _, err := cl.Gossip(feature.Vector{1, 0}, "dog", 0.8, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if svc.store.Len() != 1 {
		t.Fatalf("gossip not admitted, store len = %d", svc.store.Len())
	}
	pong, _, err := cl.Ping("me", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if pong.From != "tcp-node" || pong.Entries != 1 {
		t.Fatalf("pong = %+v", pong)
	}
}

func TestTCPConnectionReuse(t *testing.T) {
	srv, svc := startServer(t)
	if _, err := svc.store.Insert(feature.Vector{1, 0}, "cat", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	tr := newTCPClient(t)
	req, err := Encode(Query{Vec: feature.Vector{1, 0}, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := tr.Call(srv.Addr(), req); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	tr.mu.Lock()
	pooled := len(tr.conns)
	tr.mu.Unlock()
	if pooled != 1 {
		t.Fatalf("pooled conns = %d, want 1", pooled)
	}
}

// TestClientCloseReleasesPooledConnection: closing a client over TCP
// closes its pooled connection, which the server sees end.
func TestClientCloseReleasesPooledConnection(t *testing.T) {
	srv, _ := startServer(t)
	tr, err := NewTCPTransport(time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(DefaultClientConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Ping("self", srv.Addr()); err != nil {
		t.Fatal(err)
	}
	open := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns)
	}
	if n := open(); n != 1 {
		t.Fatalf("server holds %d connections after a ping, want 1", n)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); open() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("server still holds the connection after the client closed")
		}
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	srv, svc := startServer(t)
	if _, err := svc.store.Insert(feature.Vector{1, 0}, "cat", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	req, err := Encode(Query{Vec: feature.Vector{1, 0}, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := NewTCPTransport(time.Second, 2*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer tr.Close()
			for i := 0; i < 25; i++ {
				if _, _, err := tr.Call(srv.Addr(), req); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestTCPCallUnreachable(t *testing.T) {
	tr := newTCPClient(t)
	// Reserved port on localhost that nothing listens on: dial must
	// fail quickly, not hang.
	_, _, err := tr.Call("127.0.0.1:1", []byte{1})
	if err == nil {
		t.Fatal("unreachable peer accepted")
	}
	if !strings.Contains(err.Error(), "dial") {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPServerCloseIdempotent(t *testing.T) {
	srv, _ := startServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	// Calls after close fail.
	tr := newTCPClient(t)
	if _, _, err := tr.Call(srv.Addr(), []byte{1}); err == nil {
		t.Fatal("call to closed server succeeded")
	}
}

func TestTCPServerDropsGarbageConnection(t *testing.T) {
	srv, svc := startServer(t)
	tr := newTCPClient(t)
	// Send a frame that decodes to garbage: server drops the
	// connection, client sees a read error.
	if _, _, err := tr.Call(srv.Addr(), []byte{0xEE, 0xEE}); err == nil {
		t.Fatal("garbage frame got a response")
	}
	// Server must still serve subsequent well-formed traffic.
	if _, err := svc.store.Insert(feature.Vector{1, 0}, "cat", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	req, err := Encode(Query{Vec: feature.Vector{1, 0}, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.Call(srv.Addr(), req); err != nil {
		t.Fatalf("post-garbage call failed: %v", err)
	}
}

func TestTCPCallSilentPeerTimesOut(t *testing.T) {
	// A peer that accepts the connection and then never responds is
	// the nastiest failure mode: without an I/O deadline the call
	// would hang forever. The deadline must fire, and the error must
	// classify as a timeout so the peer's health record charges the right
	// failure class.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		<-done // hold the connection open, never write a byte
	}()

	tr, err := NewTCPTransport(time.Second, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	start := time.Now()
	_, rtt, err := tr.Call(ln.Addr().String(), []byte{1})
	if err == nil {
		t.Fatal("silent peer produced a response")
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("deadline took %v to fire, want ~50ms", elapsed)
	}
	if rtt < 50*time.Millisecond {
		t.Fatalf("rtt %v below the io timeout", rtt)
	}
	if got := Classify(err); got != ErrClassTimeout {
		t.Fatalf("Classify(%v) = %v, want timeout", err, got)
	}
}
