package eval

import "testing"

func TestRunP2P(t *testing.T) {
	rep, err := runP2P(Scale{Frames: 120, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != len(p2pBandwidths) {
		t.Fatalf("points = %d", len(rep.Points))
	}
	if rep.ConstrainedMBps != 0.5 {
		t.Fatalf("constrained bandwidth = %v", rep.ConstrainedMBps)
	}
	if rep.BytesReduction < 4 {
		t.Fatalf("bytes reduction = %.2fx, want >= 4x", rep.BytesReduction)
	}
	if rep.HitCompact < rep.HitLegacy {
		t.Fatalf("compact hit rate %.3f dropped below legacy %.3f", rep.HitCompact, rep.HitLegacy)
	}
	if rep.HitCompact == 0 {
		t.Fatal("peer hit rate is zero; workload is broken")
	}
	pt := rep.Points[0]
	if pt.Compact.CoalescedCached == 0 && pt.Compact.CoalescedInFlight == 0 {
		t.Fatal("compact mode never coalesced despite duplicate sessions")
	}
	if pt.Compact.Batches == 0 {
		t.Fatal("compact mode never batched gossip")
	}
	// A constrained link must not change how many messages are sent —
	// only how long they take.
	for _, pt := range rep.Points[1:] {
		if pt.Compact.Messages != rep.Points[0].Compact.Messages {
			t.Fatalf("message count varies with bandwidth: %d vs %d",
				rep.Points[0].Compact.Messages, pt.Compact.Messages)
		}
	}
}

func TestE25P2PWireShape(t *testing.T) {
	r, err := E25P2PWire(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "E25" {
		t.Fatalf("id = %q", r.ID)
	}
	// One row per bandwidth point.
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if len(row) != len(r.Headers) {
			t.Fatalf("row width %d != headers %d", len(row), len(r.Headers))
		}
	}
}
