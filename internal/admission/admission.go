// Package admission implements overload protection for the serving
// path: an AIMD concurrency limiter that gates entry to the expensive
// DNN fallback, and a brownout ladder that progressively disables the
// costlier reuse stages while the limiter is pinned at its floor.
//
// The limiter is a classic additive-increase/multiplicative-decrease
// controller over the number of in-flight fallback inferences. Every
// in-deadline completion nudges the limit up (additively, scaled by the
// current limit so growth is one slot per "window" of completions);
// every deadline miss or queue overflow multiplies it down toward a
// floor. Requests arriving above the limit are shed — answered from
// the degradation ladder at reduced confidence — instead of queueing
// without bound in front of a saturated accelerator.
//
// Brownout rides on the limiter: when it has been pressed to its floor
// for a sustained run of events the controller raises the brownout
// level, first disabling peer-to-peer queries, then replacing the
// homogenized-kNN vote with a first-candidate check. Calm runs of
// in-deadline completions with the limit off the floor lower it again.
// Both directions use hysteresis counters so one burst cannot flap the
// ladder.
package admission

import (
	"fmt"
	"sync"
)

// Level is a brownout rung. Higher levels shed more per-request work.
type Level int

// Brownout rungs, cheapest degradation first.
const (
	// LevelFull runs the whole pipeline.
	LevelFull Level = iota
	// LevelNoPeer skips peer-to-peer queries — the most expensive and
	// most shed-tolerant reuse stage.
	LevelNoPeer
	// LevelFirstCandidate additionally serves the nearest in-range
	// cache candidate without the homogenized-kNN vote.
	LevelFirstCandidate
)

// maxLevel is the deepest brownout rung.
const maxLevel = LevelFirstCandidate

// String returns the rung name.
func (l Level) String() string {
	switch l {
	case LevelFull:
		return "full"
	case LevelNoPeer:
		return "no-peer"
	case LevelFirstCandidate:
		return "first-candidate"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// The controller's one policy.
const (
	// minLimit is the concurrency floor: at least one fallback inference
	// is always admitted, so the pipeline keeps probing the accelerator.
	minLimit = 1
	// maxLimit caps additive growth.
	maxLimit = 64
	// initialLimit is the starting concurrency limit.
	initialLimit = 8
	// increase is the additive step per in-deadline completion, applied
	// as increase/limit so the limit grows by about increase per full
	// window of completions.
	increase = 1.0
	// backoff multiplies the limit on a deadline miss or queue overflow.
	backoff = 0.5
	// backoffCooldown is the minimum number of completions between two
	// multiplicative backoffs, so one late burst costs one halving, not
	// one per frame in the burst.
	backoffCooldown = 2
	// brownoutRaiseAfter is how many consecutive pressure events (sheds
	// or backoffs with the limit at its floor) raise the brownout level
	// one rung.
	brownoutRaiseAfter = 8
	// brownoutLowerAfter is how many consecutive calm events
	// (in-deadline completions with the limit off the floor) lower it
	// one rung — recovery is deliberately slower than degradation.
	brownoutLowerAfter = 64
)

// Snapshot is a point-in-time copy of the controller's state and
// counters, safe to hand to reports and printouts.
type Snapshot struct {
	// Limit is the current concurrency limit (floor of the internal
	// fractional limit).
	Limit int `json:"limit"`
	// Inflight is the number of admitted, uncompleted requests.
	Inflight int `json:"inflight"`
	// Admitted and Shed count TryAcquire outcomes.
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed"`
	// InDeadline and Late count Release outcomes.
	InDeadline int64 `json:"in_deadline"`
	Late       int64 `json:"late"`
	// Overflows counts queue-overflow completions (the batcher refused
	// or expired the request before the accelerator saw it).
	Overflows int64 `json:"overflows"`
	// Backoffs counts multiplicative decreases actually applied.
	Backoffs int64 `json:"backoffs"`
	// Level is the current brownout rung.
	Level Level `json:"level"`
	// Transitions counts brownout level changes in either direction.
	Transitions int64 `json:"transitions"`
	// AtFloor reports whether the limit sits at its floor of 1.
	AtFloor bool `json:"at_floor"`
}

// Controller is the admission limiter plus brownout ladder. It is safe
// for concurrent use; one controller is shared by every session of a
// serving pool, because they share the accelerator it protects.
type Controller struct {
	mu       sync.Mutex
	limit    float64
	inflight int

	admitted   int64
	shed       int64
	inDeadline int64
	late       int64
	overflows  int64
	backoffs   int64

	sinceBackoff int // completions since the last backoff
	pressureRun  int // consecutive pressure events
	calmRun      int // consecutive calm events
	level        Level
	transitions  int64
	onTransition func(from, to Level)
}

// New builds a controller at its initial limit.
func New() *Controller {
	return &Controller{
		limit:        initialLimit,
		sinceBackoff: backoffCooldown, // the first miss may back off immediately
	}
}

// SetTransitionHook installs a callback invoked (under the controller
// lock — keep it cheap) on every brownout level change. Used to feed
// session stats.
func (c *Controller) SetTransitionHook(fn func(from, to Level)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onTransition = fn
}

// TryAcquire claims one in-flight slot. False means the request must be
// shed to the degradation ladder (and no Release call is owed).
func (c *Controller) TryAcquire() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inflight >= c.limitLocked() {
		c.shed++
		c.pressureLocked()
		return false
	}
	c.inflight++
	c.admitted++
	return true
}

// Release completes an admitted request. inDeadline reports whether the
// request finished within its deadline (always true when deadlines are
// off): in-deadline completions grow the limit additively, late ones
// back it off multiplicatively.
func (c *Controller) Release(inDeadline bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.releaseLocked()
	if inDeadline {
		c.inDeadline++
		c.limit = min(c.limit+increase/c.limit, maxLimit)
		c.calmLocked()
		return
	}
	c.late++
	c.backoffLocked()
}

// ReleaseOverflow completes an admitted request that never reached the
// accelerator because the inference queue refused it (full) or expired
// it. Overflow is a backoff signal just like a deadline miss.
func (c *Controller) ReleaseOverflow() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.releaseLocked()
	c.overflows++
	c.backoffLocked()
}

func (c *Controller) releaseLocked() {
	if c.inflight > 0 {
		c.inflight--
	}
	c.sinceBackoff++
}

// backoffLocked applies a multiplicative decrease, rate-limited by the
// cooldown, and records pressure for the brownout ladder.
func (c *Controller) backoffLocked() {
	if c.sinceBackoff >= backoffCooldown {
		c.limit = max(c.limit*backoff, minLimit)
		c.backoffs++
		c.sinceBackoff = 0
	}
	c.pressureLocked()
}

// pressureLocked records one pressure event: sheds and backoffs count
// toward raising the brownout level only while the limiter sits at its
// floor — a backoff from a high limit is normal congestion control, not
// brownout territory.
func (c *Controller) pressureLocked() {
	if c.limitLocked() > minLimit {
		return
	}
	c.calmRun = 0
	c.pressureRun++
	if c.pressureRun >= brownoutRaiseAfter && c.level < maxLevel {
		c.setLevelLocked(c.level + 1)
		c.pressureRun = 0
	}
}

// calmLocked records one calm event: in-deadline completions with the
// limit off the floor. Sustained calm lowers the brownout level.
func (c *Controller) calmLocked() {
	if c.limitLocked() <= minLimit {
		return
	}
	c.pressureRun = 0
	c.calmRun++
	if c.calmRun >= brownoutLowerAfter && c.level > LevelFull {
		c.setLevelLocked(c.level - 1)
		c.calmRun = 0
	}
}

func (c *Controller) setLevelLocked(to Level) {
	from := c.level
	c.level = to
	c.transitions++
	if c.onTransition != nil {
		c.onTransition(from, to)
	}
}

func (c *Controller) limitLocked() int {
	return max(int(c.limit), minLimit)
}

// Level returns the current brownout rung.
func (c *Controller) Level() Level {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.level
}

// Limit returns the current concurrency limit.
func (c *Controller) Limit() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.limitLocked()
}

// Snapshot returns a copy of the controller's state and counters.
func (c *Controller) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Snapshot{
		Limit:       c.limitLocked(),
		Inflight:    c.inflight,
		Admitted:    c.admitted,
		Shed:        c.shed,
		InDeadline:  c.inDeadline,
		Late:        c.late,
		Overflows:   c.overflows,
		Backoffs:    c.backoffs,
		Level:       c.level,
		Transitions: c.transitions,
		AtFloor:     c.limitLocked() <= minLimit,
	}
}
