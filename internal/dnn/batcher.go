package dnn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"approxcache/internal/metrics"
	"approxcache/internal/vision"
)

// Typed overload errors. Callers (the engine's degradation ladder and
// watchdog) dispatch on these rather than string-matching.
var (
	// ErrBatcherClosed is returned by Infer/InferDeadline after Close.
	// The behavior is deliberately explicit: a closed batcher refuses
	// work instead of silently falling through to unbatched inference,
	// so a shutdown race surfaces as a typed error the engine's
	// degradation ladder can absorb.
	ErrBatcherClosed = errors.New("dnn: batcher closed")
	// ErrQueueFull is returned when the bounded pending queue refuses a
	// frame. The request never reached the accelerator.
	ErrQueueFull = errors.New("dnn: batcher queue full")
	// ErrExpiredInQueue is returned when a frame's deadline passed
	// while it waited in the pending queue (stale-drop) or had already
	// passed on arrival. The accelerator never saw it.
	ErrExpiredInQueue = errors.New("dnn: request expired in queue")
)

// IsOverloadError reports whether err is a queue-pressure signal
// (ErrQueueFull or ErrExpiredInQueue) — a request the accelerator never
// processed, as opposed to a classifier failure. The watchdog passes
// these through without charging its breaker.
func IsOverloadError(err error) bool {
	return errors.Is(err, ErrQueueFull) || errors.Is(err, ErrExpiredInQueue)
}

// DeadlineInferrer is a classifier front that accepts a per-request
// wall-clock deadline. The batcher implements it: frames whose deadline
// passes while they sit in the pending queue are dropped at dispatch
// time instead of occupying the accelerator.
type DeadlineInferrer interface {
	InferDeadline(im *vision.Image, deadline time.Time) (Inference, error)
}

// BatcherConfig tunes the micro-batching scheduler.
type BatcherConfig struct {
	// MaxBatch is the largest batch dispatched in one invocation. A
	// batch dispatches immediately when it fills.
	MaxBatch int
	// MaxWait bounds how long the first frame of a batch waits for
	// company before the batch dispatches anyway (wall-clock: batching
	// trades a bounded real delay for amortized model cost).
	MaxWait time.Duration
	// MaxPending bounds the frames admitted into the batcher and not
	// yet completed (queued plus dispatched-in-flight). Above the bound
	// Infer returns ErrQueueFull immediately instead of queueing
	// without limit in front of a saturated accelerator; so does
	// InferDeadline for a frame whose deadline would pass before the
	// batches ahead of it and its own finish, at the measured batch
	// time. Zero means the default bound (8×MaxBatch); negative means
	// unbounded, preserving the pre-overload-protection behavior.
	MaxPending int
}

// DefaultBatcherConfig returns the production batching policy: up to 8
// frames or 5 ms, whichever comes first, with the default queue bound.
func DefaultBatcherConfig() BatcherConfig {
	return BatcherConfig{MaxBatch: 8, MaxWait: 5 * time.Millisecond}
}

// Validate reports whether the configuration is usable.
func (c BatcherConfig) Validate() error {
	if c.MaxBatch <= 0 {
		return fmt.Errorf("dnn: MaxBatch must be positive, got %d", c.MaxBatch)
	}
	if c.MaxWait <= 0 {
		return fmt.Errorf("dnn: MaxWait must be positive, got %v", c.MaxWait)
	}
	return nil
}

// bound returns the effective in-flight bound, or 0 for unbounded.
func (c BatcherConfig) bound() int {
	if c.MaxPending < 0 {
		return 0
	}
	if c.MaxPending == 0 {
		return 8 * c.MaxBatch
	}
	return c.MaxPending
}

// batchCall is one caller's slot in a pending batch.
type batchCall struct {
	im       *vision.Image
	deadline time.Time // zero means no deadline
	done     chan struct{}
	inf      Inference
	err      error
}

// Batcher coalesces concurrent Infer calls into bounded batches
// against a BatchClassifier. A batch dispatches when it reaches
// MaxBatch frames (full flush) or when its oldest frame has waited
// MaxWait (deadline flush). Single callers therefore pay at most
// MaxWait extra latency; saturated callers get near-BatchLatency
// amortization. Batcher implements the engine-facing classifier
// interface (Infer + Profile), so it drops in front of the watchdog
// unchanged, and DeadlineInferrer for deadline-aware callers.
//
// Dispatch runs on the caller's goroutine for full flushes and on the
// timer goroutine for deadline flushes; the pending queue is swapped
// out under the mutex either way, so a batch is dispatched exactly
// once. Batches reach the model one at a time, as they would one
// accelerator. Frames whose request deadline has passed when their
// batch gets the model are stale-dropped: completed with
// ErrExpiredInQueue without touching it. After Close, Infer returns
// ErrBatcherClosed.
type Batcher struct {
	cfg   BatcherConfig
	inner BatchClassifier

	// run holds the accelerator: one batch at a time, and a batch's
	// stale-drop check runs once it holds it, so the wait behind the
	// batches before it counts against its deadlines.
	run sync.Mutex
	// batchWall is a moving average of a dispatched batch's wall time
	// in nanoseconds (written under run): what a frame waits for each
	// batch ahead of it, and for its own.
	batchWall atomic.Int64

	mu       sync.Mutex
	pending  []*batchCall
	inflight int    // admitted and not yet completed (queued + dispatched)
	taken    int    // batches taken from pending and not yet finished
	gen      uint64 // incremented per flush; lets a stale timer no-op
	timer    *time.Timer
	closed   bool

	batches         atomic.Int64
	sizeSum         atomic.Int64
	fullFlushes     atomic.Int64
	deadlineFlushes atomic.Int64
	expiredDrops    atomic.Int64
	overflows       atomic.Int64
}

// NewBatcher builds a micro-batching front for inner.
func NewBatcher(cfg BatcherConfig, inner BatchClassifier) (*Batcher, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if inner == nil {
		return nil, fmt.Errorf("dnn: nil batch classifier")
	}
	return &Batcher{cfg: cfg, inner: inner}, nil
}

// Profile returns the wrapped model's profile.
func (b *Batcher) Profile() Profile { return b.inner.Profile() }

// Infer submits im and blocks until its batch completes.
func (b *Batcher) Infer(im *vision.Image) (Inference, error) {
	return b.InferDeadline(im, time.Time{})
}

// InferDeadline submits im with a wall-clock deadline and blocks until
// its batch completes or the frame is stale-dropped. A zero deadline
// means no deadline. Frames already expired on arrival, and frames
// whose deadline passes while they wait for the accelerator, complete
// with ErrExpiredInQueue without occupying it; a bounded batcher
// refuses with ErrQueueFull a frame that could not finish in time.
func (b *Batcher) InferDeadline(im *vision.Image, deadline time.Time) (Inference, error) {
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		b.expiredDrops.Add(1)
		return Inference{}, ErrExpiredInQueue
	}
	call := &batchCall{im: im, deadline: deadline, done: make(chan struct{})}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return Inference{}, ErrBatcherClosed
	}
	if bound := b.cfg.bound(); bound > 0 && (b.inflight >= bound || !b.fitsLocked(deadline)) {
		b.mu.Unlock()
		b.overflows.Add(1)
		return Inference{}, ErrQueueFull
	}
	b.inflight++
	b.pending = append(b.pending, call)
	if len(b.pending) >= b.cfg.MaxBatch {
		batch := b.takeLocked()
		b.fullFlushes.Add(1)
		b.mu.Unlock()
		b.dispatch(batch)
		<-call.done
		return call.inf, call.err
	}
	if len(b.pending) == 1 {
		gen := b.gen
		b.timer = time.AfterFunc(b.cfg.MaxWait, func() { b.deadline(gen) })
	}
	b.mu.Unlock()

	<-call.done
	return call.inf, call.err
}

// fitsLocked reports whether a frame due by deadline (zero: none) can
// still be served in time: behind every batch taken and not finished,
// then in its own. Without it the queue would admit frames whose
// answers come after nobody waits for them, and the accelerator would
// spend its time on them. b.mu is held.
func (b *Batcher) fitsLocked(deadline time.Time) bool {
	if deadline.IsZero() {
		return true
	}
	wait := time.Duration(b.taken+1) * time.Duration(b.batchWall.Load())
	return !time.Now().Add(wait).After(deadline)
}

// takeLocked swaps out the pending queue and advances the generation
// so any armed deadline timer for it becomes a no-op.
func (b *Batcher) takeLocked() []*batchCall {
	batch := b.pending
	b.pending = nil
	if len(batch) > 0 {
		b.taken++
	}
	b.gen++
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return batch
}

// deadline fires when a batch's oldest frame has waited MaxWait.
func (b *Batcher) deadline(gen uint64) {
	b.mu.Lock()
	if b.gen != gen || len(b.pending) == 0 {
		b.mu.Unlock()
		return // the batch it was armed for already flushed full
	}
	batch := b.takeLocked()
	b.deadlineFlushes.Add(1)
	b.mu.Unlock()
	b.dispatch(batch)
}

// complete finishes one call and releases its in-flight slot.
func (b *Batcher) complete(c *batchCall, inf Inference, err error) {
	c.inf = inf
	c.err = err
	close(c.done)
	b.mu.Lock()
	b.inflight--
	b.mu.Unlock()
}

// dispatch runs one batch through the model once the model is free and
// completes its calls. Frames whose request deadline has passed by then
// are stale-dropped — the wait for the model is exactly what blows
// deadlines under overload, so the check comes after it.
func (b *Batcher) dispatch(batch []*batchCall) {
	if len(batch) == 0 {
		return
	}
	b.run.Lock()
	defer func() {
		b.run.Unlock()
		b.mu.Lock()
		b.taken--
		b.mu.Unlock()
	}()
	live := batch[:0]
	now := time.Now()
	for _, c := range batch {
		if !c.deadline.IsZero() && !now.Before(c.deadline) {
			b.expiredDrops.Add(1)
			b.complete(c, Inference{}, ErrExpiredInQueue)
			continue
		}
		live = append(live, c)
	}
	if len(live) == 0 {
		return
	}
	b.batches.Add(1)
	b.sizeSum.Add(int64(len(live)))
	ims := make([]*vision.Image, len(live))
	for i, c := range live {
		ims[i] = c.im
	}
	start := time.Now()
	infs, err := b.inner.InferBatch(ims)
	avg := int64(time.Since(start))
	if old := b.batchWall.Load(); old > 0 {
		avg = old + (avg-old)/4
	}
	b.batchWall.Store(avg)
	for i, c := range live {
		if err != nil {
			b.complete(c, Inference{}, err)
		} else {
			b.complete(c, infs[i], nil)
		}
	}
}

// Close flushes any pending batch and stops accepting work. Subsequent
// Infer/InferDeadline calls return ErrBatcherClosed; callers racing
// Close either get their batch's result or the typed error, never a
// hang. Close is safe to call more than once.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	batch := b.takeLocked()
	b.mu.Unlock()
	b.dispatch(batch)
}

// Stats returns a snapshot of the batcher's dispatch counters.
func (b *Batcher) Stats() metrics.BatcherStats {
	return metrics.BatcherStats{
		Batches:         b.batches.Load(),
		SizeSum:         b.sizeSum.Load(),
		FullFlushes:     b.fullFlushes.Load(),
		DeadlineFlushes: b.deadlineFlushes.Load(),
		ExpiredDrops:    b.expiredDrops.Load(),
		Overflows:       b.overflows.Load(),
	}
}
