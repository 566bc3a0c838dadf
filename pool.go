package approxcache

import (
	"fmt"

	"approxcache/internal/cachestore"
	"approxcache/internal/core"
	"approxcache/internal/dnn"
	"approxcache/internal/metrics"
	"approxcache/internal/simclock"
)

// BatcherStats summarizes the micro-batching scheduler's activity.
type BatcherStats = metrics.BatcherStats

// BatchClassifier is a classifier that can recognize several frames in
// one invocation, amortizing the model's fixed per-invocation cost
// across the batch. The simulated classifier implements it; NewPool
// requires it when Options.BatchSize enables micro-batching.
type BatchClassifier = dnn.BatchClassifier

// Pool serves many concurrent recognition sessions from one node. All
// sessions share the cache store (one stream's DNN result answers
// another's lookup), the statistics scoreboard, the classifier
// watchdog, and — when Options.BatchSize is set — a micro-batching
// scheduler that coalesces concurrent cache-miss classifications.
// Per-stream state (inertial gate, keyframes, last result) stays
// private, so streams never contaminate each other's motion reasoning.
//
// Each session is an ordinary *Cache; drive them from separate
// goroutines.
type Pool struct {
	pool     *core.Pool
	sessions []*Cache
	store    cachestore.Interface
	batcher  *dnn.Batcher
}

// NewPool builds a pool of sessions concurrent recognition sessions
// fronting classifier.
func NewPool(sessions int, classifier Classifier, opts Options) (*Pool, error) {
	if classifier == nil {
		return nil, fmt.Errorf("approxcache: nil classifier")
	}
	if sessions <= 0 {
		return nil, fmt.Errorf("approxcache: pool needs at least 1 session, got %d", sessions)
	}
	cfg, err := engineConfig(opts)
	if err != nil {
		return nil, err
	}
	clock := opts.Clock
	if clock == nil {
		clock = simclock.Real{}
	}
	store, err := newStore(cfg, opts, clock)
	if err != nil {
		return nil, err
	}
	cls := classifier
	var batcher *dnn.Batcher
	if opts.BatchSize > 1 {
		bc, ok := classifier.(BatchClassifier)
		if !ok {
			return nil, fmt.Errorf("approxcache: BatchSize %d needs a BatchClassifier, %T cannot batch",
				opts.BatchSize, classifier)
		}
		batcher, err = dnn.NewBatcher(dnn.BatcherConfig{
			MaxBatch: opts.BatchSize,
			MaxWait:  dnn.DefaultBatcherConfig().MaxWait,
		}, bc)
		if err != nil {
			return nil, fmt.Errorf("approxcache: batcher: %w", err)
		}
		cls = batcher
	}
	pool, err := core.NewPool(sessions, cfg, core.Deps{
		Clock:      clock,
		Classifier: cls,
		Store:      store,
	})
	if err != nil {
		if batcher != nil {
			batcher.Close()
		}
		return nil, fmt.Errorf("approxcache: %w", err)
	}
	caches := make([]*Cache, sessions)
	for i := range caches {
		caches[i] = &Cache{engine: pool.Session(i), store: store, clock: clock}
	}
	return &Pool{pool: pool, sessions: caches, store: store, batcher: batcher}, nil
}

// Size returns the number of sessions.
func (p *Pool) Size() int { return len(p.sessions) }

// Session returns session i's cache handle.
func (p *Pool) Session(i int) *Cache { return p.sessions[i] }

// Sessions returns all session handles, in index order.
func (p *Pool) Sessions() []*Cache { return p.sessions }

// Stats returns the scoreboard shared by every session.
func (p *Pool) Stats() *Stats { return p.pool.Stats() }

// Len returns the number of live entries in the shared store.
func (p *Pool) Len() int { return p.store.Len() }

// BatcherStats returns the micro-batching scheduler's counters; ok is
// false when batching is disabled.
func (p *Pool) BatcherStats() (BatcherStats, bool) {
	if p.batcher == nil {
		return BatcherStats{}, false
	}
	return p.batcher.Stats(), true
}

// AdmissionSnapshot returns the shared overload limiter's state; ok is
// false when Options.Admission is disabled.
func (p *Pool) AdmissionSnapshot() (AdmissionSnapshot, bool) {
	return p.pool.AdmissionSnapshot()
}

// Close flushes and stops the micro-batching scheduler. Call it when
// the pool's streams have drained. A Process racing Close may have its
// inference refused with ErrBatcherClosed; the degradation ladder
// absorbs the refusal (cached or last-result answer) when it can.
func (p *Pool) Close() {
	if p.batcher != nil {
		p.batcher.Close()
	}
}
