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
	if s.Refute(id) {
		t.Fatal("first refute must not quarantine at threshold 2")
	}
	// A confirm forgives the outstanding refute.
	s.Confirm(id)
	if s.Refute(id) {
		t.Fatal("refute after forgiveness must not quarantine")
	}
	if !s.Refute(id) {
		t.Fatal("second outstanding refute must quarantine")
	}
	if !s.Quarantined(id) {
		t.Fatal("entry not marked quarantined")
	}
	if _, ok := s.Label(id); ok {
		t.Fatal("Label resolved a quarantined entry")
	}
	if ns, err := s.Nearest(vec(1, 0), 4); err != nil || len(ns) != 0 {
		t.Fatalf("quarantined entry still a candidate: %v, %v", ns, err)
	}
	if out := s.Parole(id, false); out != ParoleHeld {
		t.Fatalf("first failed parole = %v, want held", out)
	}
	if out := s.Parole(id, true); out != ParoleReinstated {
		t.Fatalf("parole = %v, want reinstated", out)
	}
	e, ok := s.Get(id)
	if !ok || e.Quarantined || e.Refutes != 0 || e.ParoleFails != 0 {
		t.Fatalf("reinstated entry = %+v", e)
	}
	if ns, err := s.Nearest(vec(1, 0), 4); err != nil || len(ns) != 1 {
		t.Fatalf("reinstated entry not indexed: %v, %v", ns, err)
	}
	// Quarantine again and fail parole out.
	s.Refute(id)
	s.Refute(id)
	if out := s.Parole(id, false); out != ParoleHeld {
		t.Fatalf("parole = %v, want held", out)
	}
	if out := s.Parole(id, false); out != ParoleEvicted {
		t.Fatalf("parole = %v, want evicted", out)
	}
	if _, ok := s.Get(id); ok {
		t.Fatal("evicted entry still live")
	}
	st := s.QuarantineStats()
	if st.Active != 0 || st.Total != 2 || st.Paroled != 1 || st.Evicted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
