package cachestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"approxcache/internal/lsh"
	"approxcache/internal/simclock"
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

// TestQuarantineCountersProperty drives a random audit workload —
// inserts, confirms, refutes, paroles, removals — and checks the
// invariants the engine relies on after every step: confirm/refute/
// parole-fail counters never go negative, quarantined entries never
// resolve through Label or appear in Nearest, and the Active counter
// matches a direct scan.
func TestQuarantineCountersProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		rng := rand.New(rand.NewSource(seed))
		s, _ := newTestStore(t, Config{Capacity: 32, QuarantineThreshold: 2})
		var ids []lsh.ID
		pick := func() (lsh.ID, bool) {
			if len(ids) == 0 {
				return 0, false
			}
			return ids[rng.Intn(len(ids))], true
		}
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(10); {
			case op < 3:
				id, err := s.Insert(vec(rng.Float64(), rng.Float64()),
					fmt.Sprintf("class-%d", rng.Intn(5)), 0.9, "dnn", time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			case op < 5:
				if id, ok := pick(); ok {
					s.Confirm(id)
				}
			case op < 8:
				if id, ok := pick(); ok {
					s.Refute(id)
				}
			case op < 9:
				if id, ok := pick(); ok {
					s.Parole(id, rng.Intn(2) == 0)
				}
			default:
				if id, ok := pick(); ok {
					s.Remove(id)
				}
			}
			active := 0
			for _, e := range s.Snapshot() {
				if e.Confirms < 0 || e.Refutes < 0 || e.ParoleFails < 0 {
					t.Fatalf("seed %d step %d: negative audit counter: %+v", seed, step, e)
				}
				if e.Quarantined {
					active++
					if _, ok := s.Label(e.ID); ok {
						t.Fatalf("seed %d step %d: Label resolved quarantined %d", seed, step, e.ID)
					}
				}
			}
			if st := s.QuarantineStats(); st.Active != active {
				t.Fatalf("seed %d step %d: Active=%d, scan found %d", seed, step, st.Active, active)
			}
		}
		// Every remaining quarantined entry must be invisible to search.
		for _, e := range s.Snapshot() {
			if !e.Quarantined {
				continue
			}
			ns, err := s.Nearest(e.Vec, s.Len())
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range ns {
				if n.ID == e.ID {
					t.Fatalf("seed %d: quarantined %d returned by Nearest", seed, e.ID)
				}
			}
		}
	}
}

// TestQuarantineSnapshotDifferential: quarantine state round-trips
// through the snapshot wire format. A quarantined entry must come back
// quarantined — and stay out of the candidate set.
func TestQuarantineSnapshotDifferential(t *testing.T) {
	vecs := shardTestVecs(t, 40, 31)
	mk := func() *Store {
		idx, err := lsh.NewHyperplane(shardTestDim, 8, 4, 99)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Capacity: 256, QuarantineThreshold: 1}, idx, simclock.NewVirtual(time.Unix(0, 0)))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	src := mk()
	quarantined := map[string]bool{}
	for i, v := range vecs {
		label := fmt.Sprintf("class-%d", i)
		id, err := src.Insert(v, label, 0.9, "dnn", time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		switch i % 3 {
		case 0: // healthy, with some audit history
			src.Confirm(id)
		case 1: // quarantined
			if !src.Refute(id) {
				t.Fatalf("refute at threshold 1 did not quarantine %d", id)
			}
			quarantined[label] = true
		default: // untouched
		}
	}
	var snap bytes.Buffer
	if err := src.Export(&snap); err != nil {
		t.Fatal(err)
	}
	dst := mk()
	if _, err := dst.Import(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("import: %v", err)
	}
	if dst.Len() != len(vecs) {
		t.Fatalf("%d entries imported, want %d", dst.Len(), len(vecs))
	}
	var got []string
	for _, e := range dst.Snapshot() {
		if e.Quarantined {
			got = append(got, e.Label)
			if _, ok := dst.Label(e.ID); ok {
				t.Fatalf("Label resolved imported quarantined %q", e.Label)
			}
			ns, err := dst.Nearest(e.Vec, dst.Len())
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range ns {
				if n.ID == e.ID {
					t.Fatalf("imported quarantined %q in candidate set", e.Label)
				}
			}
		} else if e.Confidence > 0 && quarantined[e.Label] {
			t.Fatalf("%q imported unquarantined", e.Label)
		}
	}
	var want []string
	for l := range quarantined {
		want = append(want, l)
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("%d quarantined after import, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("quarantined set %v, want %v", got, want)
		}
	}
	if st := dst.QuarantineStats(); st.Active != len(want) {
		t.Fatalf("Active=%d, want %d", st.Active, len(want))
	}
}
