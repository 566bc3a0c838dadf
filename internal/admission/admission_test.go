package admission

import (
	"sync"
	"testing"
)

func TestLimitEnforced(t *testing.T) {
	c := New()
	for i := 0; i < initialLimit; i++ {
		if !c.TryAcquire() {
			t.Fatalf("acquire %d shed below the initial limit", i)
		}
	}
	if c.TryAcquire() {
		t.Fatalf("acquire above limit %d should be shed", initialLimit)
	}
	snap := c.Snapshot()
	if snap.Admitted != initialLimit || snap.Shed != 1 || snap.Inflight != initialLimit {
		t.Fatalf("snapshot = %+v", snap)
	}
	c.Release(true)
	if !c.TryAcquire() {
		t.Fatal("slot freed by Release should be reusable")
	}
}

// The limit starts at 8 and never leaves [1, 64], however long success
// or failure runs.
func TestLimitStartsAtEightStaysInBounds(t *testing.T) {
	c := New()
	if got := c.Limit(); got != 8 {
		t.Fatalf("initial limit = %d, want 8", got)
	}
	check := func(phase string, i int) {
		t.Helper()
		if l := c.Limit(); l < 1 || l > 64 {
			t.Fatalf("%s step %d: limit %d outside [1, 64]", phase, i, l)
		}
	}
	for i := 0; i < 5000; i++ {
		c.TryAcquire()
		c.Release(true)
		check("success", i)
	}
	if got := c.Limit(); got != 64 {
		t.Fatalf("limit after sustained success = %d, want the cap 64", got)
	}
	for i := 0; i < 100; i++ {
		c.TryAcquire()
		c.Release(false)
		check("failure", i)
	}
	if got := c.Limit(); got != 1 {
		t.Fatalf("limit after sustained misses = %d, want the floor 1", got)
	}
}

func TestAdditiveIncrease(t *testing.T) {
	c := New()
	// Each in-deadline completion adds 1/limit, so one window of about
	// limit completions grows the limit by one slot: 8 → 9 takes 9
	// (8 × 1/8.x falls just short).
	n := 0
	for c.Limit() == initialLimit && n < 100 {
		if !c.TryAcquire() {
			t.Fatalf("acquire %d shed below limit", n)
		}
		c.Release(true)
		n++
	}
	if got := c.Limit(); got != initialLimit+1 || n != 9 {
		t.Fatalf("limit %d after %d successes, want %d after 9", got, n, initialLimit+1)
	}
}

func TestMultiplicativeBackoff(t *testing.T) {
	c := New()
	if !c.TryAcquire() {
		t.Fatal("shed at the initial limit")
	}
	c.Release(false) // deadline miss
	if got := c.Limit(); got != 4 {
		t.Fatalf("limit after one miss = %d, want 4", got)
	}
	// Queue overflow is an equal backoff signal, once the cooldown of
	// two completions has passed.
	for i := 0; i < backoffCooldown; i++ {
		if !c.TryAcquire() {
			t.Fatalf("shed at limit %d", c.Limit())
		}
		c.ReleaseOverflow()
	}
	if got := c.Limit(); got != 2 {
		t.Fatalf("limit after overflow = %d, want 2", got)
	}
	// Repeated misses never push the limit below the floor.
	for i := 0; i < 10; i++ {
		c.TryAcquire()
		c.Release(false)
	}
	if got := c.Limit(); got != 1 {
		t.Fatalf("limit after sustained misses = %d, want floor 1", got)
	}
}

func TestBackoffCooldownRateLimitsDecrease(t *testing.T) {
	c := New()
	// Two admitted requests, both late, released back-to-back: only the
	// first may back off (cooldown of two completions).
	for i := 0; i < 2; i++ {
		if !c.TryAcquire() {
			t.Fatalf("acquire %d shed", i)
		}
	}
	for i := 0; i < 2; i++ {
		c.Release(false)
	}
	if got := c.Snapshot().Backoffs; got != 1 {
		t.Fatalf("backoffs applied = %d, want 1 (cooldown)", got)
	}
	if got := c.Limit(); got != 4 {
		t.Fatalf("limit = %d, want one halving to 4", got)
	}
}

// toFloor backs c off to its floor with late completions and returns
// how many it took. The backoff that lands on the floor is the first
// brownout pressure event.
func toFloor(t *testing.T, c *Controller) int {
	t.Helper()
	for n := 1; n <= 20; n++ {
		if !c.TryAcquire() {
			t.Fatalf("late completion %d shed at limit %d", n, c.Limit())
		}
		c.Release(false)
		if c.Limit() == minLimit {
			return n
		}
	}
	t.Fatalf("limit %d never reached the floor", c.Limit())
	return 0
}

func TestBrownoutRaisesUnderFloorPressureAndRecovers(t *testing.T) {
	c := New()
	var transitions [][2]Level
	c.SetTransitionHook(func(from, to Level) {
		transitions = append(transitions, [2]Level{from, to})
	})
	// 8 → 4 → 2 → 1, one halving per two completions.
	if n := toFloor(t, c); n != 5 {
		t.Fatalf("reached the floor after %d late completions, want 5", n)
	}
	// Occupy the single slot, then shed at the floor: each shed is one
	// more pressure event, and every 8th raises the ladder one rung.
	if !c.TryAcquire() {
		t.Fatal("acquire at the floor shed")
	}
	for shed := 1; shed <= 15; shed++ {
		if c.TryAcquire() {
			t.Fatalf("acquire %d admitted above floor limit", shed)
		}
		want := LevelFull
		switch {
		case shed >= 15:
			want = LevelFirstCandidate
		case shed >= 7:
			want = LevelNoPeer
		}
		if got := c.Level(); got != want {
			t.Fatalf("level after %d sheds at the floor = %v, want %v", shed, got, want)
		}
	}
	c.Release(true)
	// Calm: in-deadline completions. The first grows the limit off the
	// floor; from then on each counts as calm, and every 64th steps the
	// ladder back down.
	for i := 0; i < 200 && c.Level() != LevelFull; i++ {
		if !c.TryAcquire() {
			t.Fatalf("calm acquire %d shed", i)
		}
		c.Release(true)
	}
	if got := c.Level(); got != LevelFull {
		t.Fatalf("level after sustained calm = %v, want %v", got, LevelFull)
	}
	want := [][2]Level{
		{LevelFull, LevelNoPeer},
		{LevelNoPeer, LevelFirstCandidate},
		{LevelFirstCandidate, LevelNoPeer},
		{LevelNoPeer, LevelFull},
	}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v", i, transitions[i], want[i])
		}
	}
	if got := c.Snapshot().Transitions; got != int64(len(want)) {
		t.Fatalf("transition counter = %d, want %d", got, len(want))
	}
}

func TestBackoffAboveFloorIsNotBrownoutPressure(t *testing.T) {
	c := New()
	// Sheds at the initial limit and misses that halve 8 → 4 → 2 never
	// touch the floor, so the brownout ladder must not move.
	for i := 0; i < initialLimit; i++ {
		c.TryAcquire()
	}
	for i := 0; i < 3*brownoutRaiseAfter; i++ {
		if c.TryAcquire() {
			t.Fatalf("acquire %d above the limit admitted", i)
		}
	}
	for i := 0; i < 3; i++ {
		c.Release(false)
	}
	if got := c.Limit(); got != 2 {
		t.Fatalf("limit after three misses = %d, want 2", got)
	}
	if got := c.Level(); got != LevelFull {
		t.Fatalf("level after above-floor pressure = %v, want full", got)
	}
}

func TestLevelString(t *testing.T) {
	cases := map[Level]string{
		LevelFull:           "full",
		LevelNoPeer:         "no-peer",
		LevelFirstCandidate: "first-candidate",
		Level(9):            "Level(9)",
	}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", int(l), got, want)
		}
	}
}

func TestControllerConcurrency(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if !c.TryAcquire() {
					continue
				}
				switch (g + i) % 3 {
				case 0:
					c.Release(true)
				case 1:
					c.Release(false)
				default:
					c.ReleaseOverflow()
				}
			}
		}(g)
	}
	wg.Wait()
	snap := c.Snapshot()
	if snap.Inflight != 0 {
		t.Fatalf("inflight after drain = %d, want 0", snap.Inflight)
	}
	if snap.Admitted != snap.InDeadline+snap.Late+snap.Overflows {
		t.Fatalf("admitted %d != completions %d+%d+%d",
			snap.Admitted, snap.InDeadline, snap.Late, snap.Overflows)
	}
	if snap.Limit < minLimit || snap.Limit > maxLimit {
		t.Fatalf("limit %d outside [%d,%d]", snap.Limit, minLimit, maxLimit)
	}
}
