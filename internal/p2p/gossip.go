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
//
// With GossipBatch > 1 the item is queued instead of sent: the queue
// flushes when it reaches GossipBatch items or the oldest item has
// waited GossipFlush (checked lazily on enqueue and on QueryFrame, or
// explicitly via FlushGossip). Each peer receives the whole batch as
// one message.
func (c *Client) Gossip(vec feature.Vector, label string, confidence float64, savedCost time.Duration) (time.Duration, error) {
	item := Gossip{Vec: vec, Label: label, Confidence: confidence, SavedCost: savedCost}
	if c.cfg.GossipBatch <= 1 {
		return c.deliverGossip([]Gossip{item})
	}
	// Queued items outlive the caller's frame, whose vector buffer may
	// be reused; take a private copy.
	item.Vec = vec.Clone()
	now := c.clock.Now()
	c.mu.Lock()
	c.pending = append(c.pending, item)
	if len(c.pending) == 1 {
		c.due = now.Add(c.gossipFlushInterval())
	}
	flush := len(c.pending) >= c.cfg.GossipBatch || !now.Before(c.due)
	var items []Gossip
	if flush {
		items = c.pending
		c.pending = nil
	}
	c.mu.Unlock()
	if !flush {
		return 0, nil
	}
	return c.deliverGossip(items)
}

// FlushGossip delivers any queued gossip immediately. Flushes are
// otherwise lazy (on enqueue and on QueryFrame); a caller that stops
// querying calls it so no item stays queued, as E25 does after its last
// frame.
func (c *Client) FlushGossip() (time.Duration, error) {
	c.mu.Lock()
	items := c.pending
	c.pending = nil
	c.mu.Unlock()
	if len(items) == 0 {
		return 0, nil
	}
	return c.deliverGossip(items)
}

// flushDueGossip flushes the queue if its deadline has passed; called
// from QueryFrame so batching never needs a background timer.
func (c *Client) flushDueGossip() {
	c.mu.Lock()
	if len(c.pending) == 0 {
		c.mu.Unlock()
		return
	}
	due := !c.clock.Now().Before(c.due)
	var items []Gossip
	if due {
		items = c.pending
		c.pending = nil
	}
	c.mu.Unlock()
	if due {
		c.deliverGossip(items) //nolint:errcheck // fire-and-forget
	}
}

func (c *Client) gossipFlushInterval() time.Duration {
	if c.cfg.GossipFlush > 0 {
		return c.cfg.GossipFlush
	}
	return 100 * time.Millisecond
}

// deliverGossip fans the items out to admitted peers, one frame per
// peer: a Gossip for a single item, a GossipBatch for several.
func (c *Client) deliverGossip(items []Gossip) (time.Duration, error) {
	var m Message = items[0]
	if len(items) > 1 {
		m = GossipBatch{Items: items}
	}
	bufp := getEncBuf()
	defer putEncBuf(bufp)
	payload, err := AppendEncode(*bufp, m)
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
		cost, ok := c.sendGossipPayload(name, payload, m.MsgKind())
		if !ok {
			continue
		}
		if len(items) > 1 {
			c.wire.ObserveBatch(len(items))
		}
		maxCost = max(maxCost, cost)
	}
	return maxCost, nil
}

// sendGossipPayload delivers one gossip frame with the bounded retry
// policy, booking health and wire stats. ok reports delivery.
func (c *Client) sendGossipPayload(name string, payload []byte, kind Kind) (time.Duration, bool) {
	for attempt := 0; attempt < gossipAttempts; attempt++ {
		c.wire.Sent(kind.String(), len(payload))
		cost, err := c.transport.Send(name, payload)
		c.record(name, cost, err)
		if err == nil {
			return cost, true
		}
		// Only transient loss is worth a retry; a crashed or
		// partitioned peer fails the same way immediately.
		if !errors.Is(err, simnet.ErrLost) {
			break
		}
	}
	return 0, false
}
