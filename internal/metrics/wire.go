package metrics

import "sync"

// WireKindStats aggregates traffic for one message kind.
type WireKindStats struct {
	// SentMsgs/SentBytes count encoded payloads handed to the
	// transport; RecvMsgs/RecvBytes count payloads received and
	// decoded (by the decoded kind).
	SentMsgs, SentBytes int64
	RecvMsgs, RecvBytes int64
}

// WireStats is a point-in-time snapshot of a WireTally.
type WireStats struct {
	// Kinds breaks traffic down per message kind (by Kind.String()).
	Kinds map[string]WireKindStats
	// Totals across all kinds.
	SentMsgs, SentBytes int64
	RecvMsgs, RecvBytes int64
	// Deprecated: CoalescedInFlight, CoalescedCached, Batches and
	// BatchedItems are always zero. They counted the peer client's
	// in-flight query coalescing, its answer cache and its gossip
	// batches, which are gone; the fields stay because the benchmark
	// harness under benchmarks/ still reads them.
	CoalescedInFlight, CoalescedCached int64
	Batches, BatchedItems              int64
}

// WireTally accumulates per-kind wire traffic for one protocol
// endpoint. A tally is per-endpoint state: multi-node experiments run
// many endpoints in one process and must not mix their byte counts.
// The zero value is ready to use; all methods are safe for concurrent
// use.
type WireTally struct {
	mu    sync.Mutex
	kinds map[string]*WireKindStats
}

func (t *WireTally) kind(name string) *WireKindStats {
	if t.kinds == nil {
		t.kinds = make(map[string]*WireKindStats)
	}
	k := t.kinds[name]
	if k == nil {
		k = &WireKindStats{}
		t.kinds[name] = k
	}
	return k
}

// Sent books one encoded payload of n bytes handed to the transport.
func (t *WireTally) Sent(kind string, n int) {
	t.mu.Lock()
	k := t.kind(kind)
	k.SentMsgs++
	k.SentBytes += int64(n)
	t.mu.Unlock()
}

// Recv books one received payload of n bytes.
func (t *WireTally) Recv(kind string, n int) {
	t.mu.Lock()
	k := t.kind(kind)
	k.RecvMsgs++
	k.RecvBytes += int64(n)
	t.mu.Unlock()
}

// Snapshot returns a copy of the current totals.
func (t *WireTally) Snapshot() WireStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := WireStats{Kinds: make(map[string]WireKindStats, len(t.kinds))}
	for name, k := range t.kinds {
		s.Kinds[name] = *k
		s.SentMsgs += k.SentMsgs
		s.SentBytes += k.SentBytes
		s.RecvMsgs += k.RecvMsgs
		s.RecvBytes += k.RecvBytes
	}
	return s
}
