package p2p

import (
	"net"
	"testing"
	"time"

	"approxcache/internal/testutil"
)

// TestTCPServerCloseLeaksNothing: closing a server with a connection
// open ends both acceptLoop and the connection's serveConn.
func TestTCPServerCloseLeaksNothing(t *testing.T) {
	check := testutil.LeakGuard(t, 0)
	svc, err := NewService(DefaultServiceConfig("leak-node"), newStore(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ListenAndServe("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for {
		srv.mu.Lock()
		open := len(srv.conns)
		srv.mu.Unlock()
		if open == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The server hung up: the client reads EOF, not a reply.
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection still served after Close")
	}
	check()
}
