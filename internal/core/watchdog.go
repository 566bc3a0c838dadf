package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"approxcache/internal/dnn"
	"approxcache/internal/metrics"
	"approxcache/internal/simclock"
	"approxcache/internal/vision"
)

// Typed pipeline errors. Callers match with errors.Is.
var (
	// ErrBadFrame: the frame is structurally unusable (nil, zero
	// dimensions, or a pixel buffer that does not match them). The engine
	// refuses it on arrival rather than feeding garbage to the gates or
	// the cache. Pixels are 8-bit, so every value is a reading: a frame
	// of the right shape is never refused.
	ErrBadFrame = errors.New("core: bad frame")
	// ErrBadIMUWindow: the IMU window carries non-finite readings that
	// would poison the motion statistics.
	ErrBadIMUWindow = errors.New("core: bad imu window")
	// ErrClassifierDown: the classifier watchdog has tripped (or the
	// final attempt failed after the breaker opened) and no degraded
	// answer was available.
	ErrClassifierDown = errors.New("core: classifier down")
	// ErrDeadlineExceeded: the frame's request deadline expired and no
	// rung of the degradation ladder had an answer for it. This is the
	// ladder's last resort for deadline-carrying requests — typed, never
	// a silent drop.
	ErrDeadlineExceeded = errors.New("core: request deadline exceeded")
)

// DegradationLevel records how far down the serving ladder a frame's
// answer came from. The ladder is: full pipeline (DegradeNone) → best
// approximate cache hit under a relaxed radius (DegradeCacheOnly) →
// repeat of the last served result (DegradeLastResult). Anything
// degraded is served with halved confidence and Source
// metrics.SourceFallback so callers can tell stale answers apart.
type DegradationLevel int

// Degradation levels, best to worst.
const (
	// DegradeNone: the frame was served by the healthy pipeline.
	DegradeNone DegradationLevel = iota
	// DegradeCacheOnly: the DNN was unavailable; the answer is the
	// nearest cached entry within a relaxed distance.
	DegradeCacheOnly
	// DegradeLastResult: the DNN and the cache both had nothing; the
	// answer repeats the previous frame's result.
	DegradeLastResult
	// DegradeOverload: a full inference queue shed the frame before
	// the DNN could run; the answer came from the
	// same cache-only/last-result ladder, typed metrics.SourceShed.
	DegradeOverload
	// DegradeDeadline: the request deadline expired before the DNN
	// could run (in the gate ladder or the inference queue); the answer
	// came from the ladder, typed metrics.SourceShed.
	DegradeDeadline
)

var degradationNames = [...]string{"none", "cache-only", "last-result", "overload", "deadline"}

// String returns the level name.
func (d DegradationLevel) String() string {
	if d >= 0 && int(d) < len(degradationNames) {
		return degradationNames[d]
	}
	return fmt.Sprintf("DegradationLevel(%d)", int(d))
}

// The watchdog's one policy, tuned for a ~100 ms-class model: a 1 s
// call deadline (10× the expected cost), one quick retry, and a breaker
// that opens after 3 straight failures and re-probes every 500 ms.
const (
	// callTimeout bounds one classifier call on the wall clock (capped
	// by the request deadline); a call exceeding it counts as failed and
	// its frame is charged the timeout. A call the request deadline cut
	// short is charged too but is no failure: a spent budget says
	// nothing of the classifier. Timeouts are not retried — a wedged
	// delegate will not un-wedge in a frame budget.
	callTimeout = time.Second
	// maxRetries is how many times a failed (not timed-out) call is
	// retried before the frame gives up. Transient faults — an OOM-
	// killed delegate, a thermal abort — often clear immediately.
	maxRetries = 1
	// retryBackoff is the simulated pause charged to the frame before
	// each retry.
	retryBackoff = 20 * time.Millisecond
	// retryJitter bounds the extra pause added to each retry's backoff,
	// derived deterministically from the session's jitter seed and the
	// attempt number. Pool sessions therefore spread their retries
	// instead of hammering a recovering classifier in lockstep, while
	// single-session runs stay reproducible.
	retryJitter = 10 * time.Millisecond
	// tripThreshold consecutive failed calls open the breaker. While
	// open, calls fast-fail without touching the classifier until
	// cooldown elapses on the engine clock, then one probe is let
	// through.
	tripThreshold = 3
	// cooldown is how long (engine clock) the breaker stays open
	// between probes.
	cooldown = 500 * time.Millisecond
)

// watchdog supervises the classifier: per-call wall-clock deadline,
// bounded retry for transient errors, and a consecutive-failure breaker
// with engine-clock cooldown and half-open probing. It reports every
// event to the session stats. Safe for concurrent use.
type watchdog struct {
	disabled bool // bypass supervision entirely (ablation)
	inner    Classifier
	clock    simclock.Clock
	stats    *metrics.SessionStats

	mu        sync.Mutex
	failures  int // consecutive failed calls
	tripped   bool
	trippedAt time.Time // engine clock
}

func newWatchdog(disabled bool, inner Classifier, clock simclock.Clock, stats *metrics.SessionStats) *watchdog {
	return &watchdog{disabled: disabled, inner: inner, clock: clock, stats: stats}
}

// infer runs one supervised classification. penalty is the simulated
// latency the supervision itself cost (timeouts, retry backoff) and
// must be charged to the frame whether or not the call succeeded.
//
// deadline is the frame's wall-clock request deadline (zero = none):
// it caps the per-call timeout and, when the classifier front supports
// it (dnn.DeadlineInferrer), rides along so the micro-batcher can
// stale-drop the frame if it expires in the queue. jitterSeed selects
// the session's deterministic retry-jitter schedule; the watchdog is
// shared pool-wide, so the seed travels with the call.
func (w *watchdog) infer(im *vision.Image, deadline time.Time, jitterSeed uint64) (inf dnn.Inference, penalty time.Duration, err error) {
	if w.disabled {
		inf, err = w.call(im, deadline)
		return inf, 0, err
	}
	w.mu.Lock()
	if w.tripped && w.clock.Now().Sub(w.trippedAt) < cooldown {
		w.mu.Unlock()
		w.stats.Add(metrics.EventWatchdogFastFail, 1)
		return dnn.Inference{}, 0, fmt.Errorf("%w: breaker open", ErrClassifierDown)
	}
	// Either healthy, or the cooldown elapsed: let this call probe.
	w.mu.Unlock()

	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			penalty += retryBackoff + retryPause(jitterSeed, attempt)
			w.stats.Add(metrics.EventWatchdogRetry, 1)
		}
		var timedOut bool
		var waited time.Duration
		inf, lastErr, timedOut, waited = w.callOnce(im, deadline)
		if timedOut {
			penalty += waited
			w.stats.Add(metrics.EventWatchdogTimeout, 1)
			if waited < callTimeout {
				// The request deadline cut the call short: the frame ran
				// out of budget, which says nothing of the classifier's
				// health, so the breaker is not charged.
				return dnn.Inference{}, penalty, fmt.Errorf("core: infer failed: %w", lastErr)
			}
			break // a wedged call will not un-wedge within a frame
		}
		if lastErr == nil {
			w.observeSuccess()
			return inf, penalty, nil
		}
		if dnn.IsOverloadError(lastErr) || errors.Is(lastErr, dnn.ErrBatcherClosed) {
			// Queue pressure and shutdown refusals are not classifier
			// failures: the model never saw the frame, so retrying
			// won't drain the queue and the breaker must not trip.
			return dnn.Inference{}, penalty, lastErr
		}
	}
	if w.observeFailure() {
		return dnn.Inference{}, penalty, fmt.Errorf("%w: %v", ErrClassifierDown, lastErr)
	}
	return dnn.Inference{}, penalty, fmt.Errorf("core: infer failed: %w", lastErr)
}

// call invokes the inner classifier, routing through its deadline-aware
// entry point when one exists and the frame carries a deadline.
func (w *watchdog) call(im *vision.Image, deadline time.Time) (dnn.Inference, error) {
	if !deadline.IsZero() {
		if di, ok := w.inner.(dnn.DeadlineInferrer); ok {
			return di.InferDeadline(im, deadline)
		}
	}
	return w.inner.Infer(im)
}

// retryPause returns the deterministic extra pause for one retry, in
// [0, retryJitter), derived from the session seed and attempt via a
// splitmix64-style mix so distinct sessions get divergent schedules.
func retryPause(seed uint64, attempt int) time.Duration {
	x := seed + 0x9e3779b97f4a7c15*uint64(attempt+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return time.Duration(x % uint64(retryJitter))
}

// callOnce runs a single classifier call under the wall-clock timeout:
// callTimeout, capped by the time remaining until the request deadline.
// On timeout the call's goroutine is abandoned (it exits when the inner
// call eventually returns; the buffered channel never blocks it) and
// waited reports the bound actually charged.
func (w *watchdog) callOnce(im *vision.Image, deadline time.Time) (dnn.Inference, error, bool, time.Duration) {
	timeout := callTimeout
	if !deadline.IsZero() {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			// The budget is already gone; don't occupy the accelerator.
			return dnn.Inference{}, dnn.ErrExpiredInQueue, false, 0
		}
		timeout = min(timeout, remaining)
	}
	type outcome struct {
		inf dnn.Inference
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		inf, err := w.call(im, deadline)
		ch <- outcome{inf, err}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.inf, o.err, false, 0
	case <-timer.C:
		return dnn.Inference{}, fmt.Errorf("core: classifier call exceeded %v", timeout), true, timeout
	}
}

func (w *watchdog) observeSuccess() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.tripped {
		w.tripped = false
		w.stats.Add(metrics.EventWatchdogRecovery, 1)
	}
	w.failures = 0
}

// observeFailure records a failed call and reports whether the breaker
// is (now) open. A failed half-open probe re-arms the cooldown.
func (w *watchdog) observeFailure() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.failures++
	if w.failures < tripThreshold && !w.tripped {
		return false
	}
	if !w.tripped {
		w.tripped = true
		w.stats.Add(metrics.EventWatchdogTrip, 1)
	}
	w.trippedAt = w.clock.Now()
	return true
}
