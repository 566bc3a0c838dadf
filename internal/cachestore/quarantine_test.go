package cachestore

import (
	"testing"
	"time"
)

// TestQuarantineLifecycle walks one entry through the full state
// machine: refutes accumulate, the threshold quarantines (index
// removal), failed parole holds then evicts, successful parole
// reinstates with cleared counters.
func TestQuarantineLifecycle(t *testing.T) {
	s, _ := newTestStore(t, Config{Capacity: 8, QuarantineThreshold: 2})
	id, err := s.Insert(vec(1, 0), "door", 0.9, "dnn", time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	quarantined := func() bool { e, _ := s.get(id); return e.Quarantined }
	if s.Refute(id); quarantined() {
		t.Fatal("first refute must not quarantine at threshold 2")
	}
	// A confirm forgives the outstanding refute.
	s.Confirm(id)
	if s.Refute(id); quarantined() {
		t.Fatal("refute after forgiveness must not quarantine")
	}
	if s.Refute(id); !quarantined() {
		t.Fatal("second outstanding refute must quarantine")
	}
	if _, ok := s.Label(id); ok {
		t.Fatal("Label resolved a quarantined entry")
	}
	if ns, err := s.Nearest(vec(1, 0), 4); err != nil || len(ns) != 0 {
		t.Fatalf("quarantined entry still a candidate: %v, %v", ns, err)
	}
	if s.Parole(id, false); !quarantined() {
		t.Fatal("first failed parole must hold the entry")
	}
	s.Parole(id, true)
	e, ok := s.get(id)
	if !ok || e.Quarantined || e.Refutes != 0 || e.ParoleFails != 0 {
		t.Fatalf("reinstated entry = %+v", e)
	}
	if ns, err := s.Nearest(vec(1, 0), 4); err != nil || len(ns) != 1 {
		t.Fatalf("reinstated entry not indexed: %v, %v", ns, err)
	}
	// Quarantine again and fail parole out.
	s.Refute(id)
	s.Refute(id)
	if s.Parole(id, false); !quarantined() {
		t.Fatal("failed parole must hold the entry")
	}
	s.Parole(id, false)
	if _, ok := s.get(id); ok {
		t.Fatal("evicted entry still live")
	}
	st := s.QuarantineStats()
	if st.Active != 0 || st.Total != 2 || st.Paroled != 1 || st.Evicted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
