package eval

import (
	"reflect"
	"testing"
)

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
	// The gated ratio divides by this run's own compaction-off pass.
	legacy := pt.Legacy
	if legacy.CoalescedCached+legacy.CoalescedInFlight != 0 || legacy.Batches != 0 {
		t.Fatalf("compaction-off pass coalesced or batched: %+v", legacy)
	}
	want := float64(legacy.SentBytes+legacy.RecvBytes) / float64(rep.Frames*rep.Sessions)
	if legacy.BytesPerFrame != want || rep.BytesReduction != want/pt.Compact.BytesPerFrame {
		t.Fatalf("baseline %.2f B/frame, reduction %.2fx; the compaction-off pass moved %.2f B/frame",
			legacy.BytesPerFrame, rep.BytesReduction, want)
	}
}

// TestE25TrafficIdenticalAcrossBandwidths: the links are lossless and
// jitter-free, so a constrained link changes how long messages take,
// never which messages or how many bytes go over it; and a second run in
// the same process sends exactly what the first did.
func TestE25TrafficIdenticalAcrossBandwidths(t *testing.T) {
	first, err := runP2P(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	base := first.Points[0].Compact
	for _, pt := range first.Points[1:] {
		if got := pt.Compact; got.Messages != base.Messages || got.SentBytes != base.SentBytes || got.RecvBytes != base.RecvBytes {
			t.Errorf("@ %.2f MB/s: %d msgs, %d B sent, %d B received; @ %.2f MB/s: %d, %d, %d",
				pt.BandwidthMBps, got.Messages, got.SentBytes, got.RecvBytes,
				first.Points[0].BandwidthMBps, base.Messages, base.SentBytes, base.RecvBytes)
		}
	}
	again, err := runP2P(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("a second run differs:\n%+v\n%+v", first, again)
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
