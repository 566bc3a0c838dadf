package approxcache_test

import (
	"testing"
	"time"

	"approxcache"
)

func TestMaxReuseStreakDisabled(t *testing.T) {
	w := testWorkload(t, 150)
	unbounded := newCache(t, w, approxcache.Options{MaxReuseStreak: -1})
	replay(t, unbounded, w)
	bounded := newCache(t, w, approxcache.Options{})
	replay(t, bounded, w)
	// Without the staleness bound, fewer DNN runs happen (no forced
	// revalidation).
	u := unbounded.Stats().CountBySource()[approxcache.SourceDNN]
	b := bounded.Stats().CountBySource()[approxcache.SourceDNN]
	if u >= b {
		t.Fatalf("unbounded dnn runs %d not below bounded %d", u, b)
	}
}

// TestNegativeOptionsRejected: New and NewPool refuse a negative value
// in a field that documents no meaning for one, instead of quietly
// running on the default; the documented negatives still disable their
// bounds.
func TestNegativeOptionsRejected(t *testing.T) {
	w := testWorkload(t, 10)
	clf := testClassifier(t, w)
	for name, opts := range map[string]approxcache.Options{
		"RequestDeadline": {RequestDeadline: -time.Second},
		"BatchSize":       {BatchSize: -1},
	} {
		if _, err := approxcache.New(clf, opts); err == nil {
			t.Errorf("New accepted a negative %s", name)
		}
		if _, err := approxcache.NewPool(2, clf, opts); err == nil {
			t.Errorf("NewPool accepted a negative %s", name)
		}
	}
	documented := approxcache.Options{MaxReuseStreak: -1, PeerBudget: -time.Second}
	if _, err := approxcache.New(clf, documented); err != nil {
		t.Errorf("New refused the documented negatives: %v", err)
	}
	p, err := approxcache.NewPool(2, clf, documented)
	if err != nil {
		t.Fatalf("NewPool refused the documented negatives: %v", err)
	}
	p.Close()
}

// TestControllerSwitches: the quality layer is off unless its switch is
// set, and on it starts from its fixed policy, at full trust.
func TestControllerSwitches(t *testing.T) {
	w := testWorkload(t, 10)
	off := newCache(t, w, approxcache.Options{})
	if _, ok := off.QualitySnapshot(); ok {
		t.Fatal("quality layer on by default")
	}
	on := newCache(t, w, approxcache.Options{Quality: true})
	if snap, ok := on.QualitySnapshot(); !ok || snap.Scale != 1 || snap.LiveAccuracy != 1 {
		t.Fatalf("quality snapshot = %+v, %v; want scale 1 at accuracy 1", snap, ok)
	}
	replay(t, on, w)
}
