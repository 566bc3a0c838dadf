package metrics

import (
	"sync"
	"testing"
)

func TestWireTallyCounts(t *testing.T) {
	var w WireTally
	w.Sent("query", 100)
	w.Sent("query", 50)
	w.Sent("gossip", 25)
	w.Recv("query-resp", 10)

	s := w.Snapshot()
	if s.SentMsgs != 3 || s.SentBytes != 175 {
		t.Fatalf("sent %d msgs / %d bytes", s.SentMsgs, s.SentBytes)
	}
	if s.RecvMsgs != 1 || s.RecvBytes != 10 {
		t.Fatalf("recv %d msgs / %d bytes", s.RecvMsgs, s.RecvBytes)
	}
	if q := s.Kinds["query"]; q.SentMsgs != 2 || q.SentBytes != 150 {
		t.Fatalf("query kind = %+v", q)
	}
	// Snapshot is a copy: mutating the tally afterwards must not
	// change it.
	w.Sent("query", 1)
	if s.SentMsgs != 3 || s.Kinds["query"].SentMsgs != 2 {
		t.Fatal("snapshot aliased live state")
	}
}

func TestWireTallyZeroValue(t *testing.T) {
	var w WireTally
	s := w.Snapshot()
	if s.SentMsgs != 0 || s.RecvMsgs != 0 || len(s.Kinds) != 0 {
		t.Fatalf("zero tally snapshot = %+v", s)
	}
}

func TestWireTallyConcurrent(t *testing.T) {
	var w WireTally
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				w.Sent("query", 10)
				w.Recv("query-resp", 5)
			}
		}()
	}
	wg.Wait()
	s := w.Snapshot()
	if s.SentMsgs != 800 || s.SentBytes != 8000 || s.RecvMsgs != 800 || s.RecvBytes != 4000 {
		t.Fatalf("concurrent tally lost updates: %+v", s)
	}
}
