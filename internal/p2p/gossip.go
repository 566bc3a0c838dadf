package p2p

import (
	"errors"
	"fmt"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/simnet"
)

// Gossip shares a fresh recognition result with every admitted peer.
// Gossip is fire-and-forget: per-peer failures are ignored after a
// bounded retry, peers with open circuits are skipped, and the returned
// cost is the slowest successful delivery (sends proceed concurrently
// on a real radio). Retry pacing happens off the recognition hot path,
// so no backoff is charged to the returned cost.
func (c *Client) Gossip(vec feature.Vector, label string, confidence float64, savedCost time.Duration) (time.Duration, error) {
	bufp := getEncBuf()
	defer putEncBuf(bufp)
	payload, err := AppendEncode(*bufp, Gossip{Vec: vec, Label: label, Confidence: confidence, SavedCost: savedCost})
	if err != nil {
		return 0, fmt.Errorf("encode gossip: %w", err)
	}
	*bufp = payload
	now := c.clock.Now()
	c.mu.Lock()
	var buf [8]string
	admitted := c.admitLocked(buf[:0], now)
	c.mu.Unlock()
	var maxCost time.Duration
	for _, name := range admitted {
		if cost, ok := c.sendGossipPayload(name, payload); ok {
			maxCost = max(maxCost, cost)
		}
	}
	return maxCost, nil
}

// sendGossipPayload delivers one gossip frame with the bounded retry
// policy, booking health and wire stats. ok reports delivery.
func (c *Client) sendGossipPayload(name string, payload []byte) (time.Duration, bool) {
	for attempt := 0; attempt < gossipAttempts; attempt++ {
		c.wire.Sent(KindGossip.String(), len(payload))
		cost, err := c.transport.Send(name, payload)
		c.record(name, cost, err)
		if err == nil {
			return cost, true
		}
		// Only transient loss is worth a retry; a crashed or
		// unreachable peer fails the same way immediately.
		if !errors.Is(err, simnet.ErrLost) {
			break
		}
	}
	return 0, false
}
