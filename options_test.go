package approxcache_test

import (
	"testing"
	"time"

	"approxcache"
)

func TestTTLOption(t *testing.T) {
	w := testWorkload(t, 150)
	// A TTL far below the trace length: entries expire mid-run and
	// the pipeline keeps working.
	c := newCache(t, w, approxcache.Options{TTL: time.Second})
	replay(t, c, w)
	if c.Stats().Frames() != 150 {
		t.Fatalf("frames = %d", c.Stats().Frames())
	}
	if _, err := approxcache.New(testClassifier(t, w), approxcache.Options{TTL: -time.Second}); err == nil {
		t.Fatal("negative TTL accepted")
	}
}

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

// TestVoteOverride runs the panning sweep, whose scene changes get past
// the inertial and video gates to the kNN vote: a near-zero radius
// accepts fewer local hits than the default vote.
func TestVoteOverride(t *testing.T) {
	w, err := approxcache.GenerateWorkload(approxcache.StandardWorkloads(200, 3)[3])
	if err != nil {
		t.Fatal(err)
	}
	strict := newCache(t, w, approxcache.Options{
		Vote: approxcache.VoteConfig{
			K: 4, MaxDistance: 0.01, DominanceRatio: 2, MinVotes: 1,
		},
	})
	replay(t, strict, w)
	loose := newCache(t, w, approxcache.Options{})
	replay(t, loose, w)
	s := strict.Stats().CountBySource()[approxcache.SourceLocal]
	l := loose.Stats().CountBySource()[approxcache.SourceLocal]
	if s >= l {
		t.Fatalf("strict vote local hits %d not below default %d", s, l)
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
		"TTL":             {TTL: -time.Second},
		"BatchSize":       {BatchSize: -1},
		"LastResultTTL":   {LastResultTTL: -time.Second},
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

// TestControllerSwitches: the admission limiter and the quality layer
// are off unless their switch is set, and on they start from their
// fixed policy — the limiter at 8, the quality layer at full trust.
func TestControllerSwitches(t *testing.T) {
	w := testWorkload(t, 10)
	off := newCache(t, w, approxcache.Options{})
	if _, ok := off.AdmissionSnapshot(); ok {
		t.Fatal("admission limiter on by default")
	}
	if _, ok := off.QualitySnapshot(); ok {
		t.Fatal("quality layer on by default")
	}
	on := newCache(t, w, approxcache.Options{Admission: true, Quality: true})
	if snap, ok := on.AdmissionSnapshot(); !ok || snap.Limit != 8 || snap.Level != approxcache.AdmissionFull {
		t.Fatalf("admission snapshot = %+v, %v; want limit 8 at full", snap, ok)
	}
	if snap, ok := on.QualitySnapshot(); !ok || snap.Scale != 1 || snap.LiveAccuracy != 1 {
		t.Fatalf("quality snapshot = %+v, %v; want scale 1 at accuracy 1", snap, ok)
	}
	replay(t, on, w)
	on.DrainAudits()
}
