package approxcache_test

import (
	"testing"
	"time"

	"approxcache"
)

func TestNaiveSkipOption(t *testing.T) {
	w := testWorkload(t, 100)
	c := newCache(t, w, approxcache.Options{Mode: approxcache.ModeNaiveSkip, SkipEvery: 5})
	replay(t, c, w)
	counts := c.Stats().CountBySource()
	dnn := counts[approxcache.SourceDNN]
	// SkipEvery=5 → roughly one inference in five.
	if dnn < 15 || dnn > 25 {
		t.Fatalf("dnn runs = %d, want ~20", dnn)
	}
	if c.Mode() != approxcache.ModeNaiveSkip {
		t.Fatalf("mode = %v", c.Mode())
	}
}

func TestNaiveSkipDefaultBudget(t *testing.T) {
	w := testWorkload(t, 100)
	c := newCache(t, w, approxcache.Options{Mode: approxcache.ModeNaiveSkip})
	replay(t, c, w)
	// Default SkipEvery=20 → ~5 inferences per 100 frames.
	if dnn := c.Stats().CountBySource()[approxcache.SourceDNN]; dnn < 4 || dnn > 8 {
		t.Fatalf("dnn runs = %d, want ~5", dnn)
	}
}

func TestAdaptiveLSHOption(t *testing.T) {
	w := testWorkload(t, 150)
	c := newCache(t, w, approxcache.Options{AdaptiveLSH: true})
	replay(t, c, w)
	if c.Stats().HitRate() < 0.5 {
		t.Fatalf("adaptive hit rate = %v", c.Stats().HitRate())
	}
	if c.Len() == 0 {
		t.Fatal("adaptive cache stayed empty")
	}
}

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

func TestKeyframeCapacityOption(t *testing.T) {
	w := testWorkload(t, 100)
	c := newCache(t, w, approxcache.Options{KeyframeCapacity: 1})
	replay(t, c, w)
	if c.Stats().Frames() != 100 {
		t.Fatalf("frames = %d", c.Stats().Frames())
	}
	if _, err := approxcache.New(testClassifier(t, w), approxcache.Options{KeyframeCapacity: -1}); err == nil {
		t.Fatal("negative KeyframeCapacity accepted")
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

func TestVoteOverride(t *testing.T) {
	w := testWorkload(t, 100)
	strict := newCache(t, w, approxcache.Options{
		DisableIMUGate:   true,
		DisableVideoGate: true,
		Vote: approxcache.VoteConfig{
			K: 4, MaxDistance: 0.01, DominanceRatio: 2, MinVotes: 1,
		},
	})
	replay(t, strict, w)
	loose := newCache(t, w, approxcache.Options{
		DisableIMUGate:   true,
		DisableVideoGate: true,
	})
	replay(t, loose, w)
	s := strict.Stats().CountBySource()[approxcache.SourceLocal]
	l := loose.Stats().CountBySource()[approxcache.SourceLocal]
	if s >= l {
		t.Fatalf("strict vote local hits %d not below default %d", s, l)
	}
}

func TestEvictionPolicyOption(t *testing.T) {
	for _, policy := range []approxcache.EvictionPolicy{
		approxcache.EvictLRU, approxcache.EvictLFU, approxcache.EvictCostAware,
	} {
		w := testWorkload(t, 80)
		c := newCache(t, w, approxcache.Options{Eviction: policy, Capacity: 8})
		replay(t, c, w)
		if c.Len() > 8 {
			t.Fatalf("policy %v exceeded capacity", policy)
		}
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
		"RequestDeadline":  {RequestDeadline: -time.Second},
		"KeyframeCapacity": {KeyframeCapacity: -1},
		"TTL":              {TTL: -time.Second},
		"BatchSize":        {BatchSize: -1},
		"LastResultTTL":    {LastResultTTL: -time.Second},
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
