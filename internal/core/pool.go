package core

import (
	"fmt"

	"approxcache/internal/metrics"
)

// Pool is a multi-session serving front: N engines, one per client
// stream, each with private gate state (IMU detector, keyframe
// library, last-result, reuse streak) over SHARED infrastructure — the
// cache store, the classifier (typically a micro-batching scheduler),
// the classifier watchdog, and one session-stats scoreboard.
//
// Private gate state matters because the cheap gates reason about ONE
// camera's temporal locality; interleaving streams through a single
// engine would let stream A's keyframes answer stream B's frames. The
// shared store matters for the opposite reason: recognition results
// are stream-independent, so every stream should hit every stream's
// cached work — that is the serving-scale analogue of the paper's
// cross-device sharing.
type Pool struct {
	engines []*Engine
	stats   *metrics.SessionStats
}

// NewPool builds n engines from cfg and deps. All engines share
// deps.Store, deps.Classifier, one watchdog (so classifier failures
// trip one breaker for the whole node, not per-stream), one quality
// controller, and one SessionStats. Each session gets its own retry
// jitter seed so a recovering classifier is not hit by synchronized
// retry storms.
func NewPool(n int, cfg Config, deps Deps) (*Pool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: pool size must be positive, got %d", n)
	}
	// Build the first engine through the validating path; it creates
	// the shared stats, watchdog, and quality controller the siblings
	// attach to.
	first, err := newEngine(cfg, deps, nil, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	p := &Pool{engines: make([]*Engine, n), stats: first.stats}
	p.engines[0] = first
	for i := 1; i < n; i++ {
		e, err := newEngine(cfg, deps, first.stats, first.wd, first.quality, i)
		if err != nil {
			return nil, err
		}
		p.engines[i] = e
	}
	return p, nil
}

// Session returns stream i's engine.
func (p *Pool) Session(i int) *Engine { return p.engines[i] }

// Sessions returns all engines, one per stream.
func (p *Pool) Sessions() []*Engine {
	out := make([]*Engine, len(p.engines))
	copy(out, p.engines)
	return out
}

// Stats returns the pool-wide session statistics (shared by every
// engine).
func (p *Pool) Stats() *metrics.SessionStats { return p.stats }
