package eval

import (
	"reflect"
	"testing"
)

func TestRunP2P(t *testing.T) {
	rep := runP2P(Scale{Frames: 120, Seed: 7})
	if len(rep.Points) != len(p2pBandwidths) {
		t.Fatalf("points = %d", len(rep.Points))
	}
	if rep.ConstrainedMBps != 0.5 {
		t.Fatalf("constrained bandwidth = %v", rep.ConstrainedMBps)
	}
	if rep.BytesReduction < 4 {
		t.Fatalf("bytes reduction = %.2fx, want >= 4x", rep.BytesReduction)
	}
	if rep.HitCompact != rep.HitLegacy {
		t.Fatalf("hit rates %.3f and %.3f; the float64 side is priced from the same run", rep.HitCompact, rep.HitLegacy)
	}
	if rep.HitCompact == 0 {
		t.Fatal("peer hit rate is zero; workload is broken")
	}
	// Every session-frame's query and every gossip reaches every peer
	// once on these lossless links, each carrying one vector; the other
	// messages are the warm-up pings.
	sessionFrames := rep.Frames * rep.Sessions
	gossips := rep.Frames / p2pGossipEvery
	pt := rep.Points[0]
	c := pt.Compact
	if want := int64((sessionFrames + gossips) * rep.Nodes); c.Vectors != want || c.Messages != want+int64(rep.Nodes) {
		t.Fatalf("%d vectors in %d messages, want %d vectors and %d pings", c.Vectors, c.Messages, want, rep.Nodes)
	}
	// The float64 side is this run's bytes plus the surcharge per vector.
	want := float64(c.SentBytes+c.RecvBytes+c.Vectors*p2pFloat64Surcharge) / float64(sessionFrames)
	if pt.Float64BytesPerFrame != want || rep.BytesReduction != want/c.BytesPerFrame {
		t.Fatalf("float64 side %.2f B/frame, reduction %.2fx; this run's bytes price at %.2f B/frame",
			pt.Float64BytesPerFrame, rep.BytesReduction, want)
	}
}

// TestE25TrafficIdenticalAcrossBandwidths: the links are lossless and
// jitter-free, so a constrained link changes how long messages take,
// never which messages or how many bytes go over it; and a second run in
// the same process sends exactly what the first did.
func TestE25TrafficIdenticalAcrossBandwidths(t *testing.T) {
	first := runP2P(tinyScale())
	base := first.Points[0].Compact
	for _, pt := range first.Points[1:] {
		if got := pt.Compact; got.Messages != base.Messages || got.SentBytes != base.SentBytes || got.RecvBytes != base.RecvBytes {
			t.Errorf("@ %.2f MB/s: %d msgs, %d B sent, %d B received; @ %.2f MB/s: %d, %d, %d",
				pt.BandwidthMBps, got.Messages, got.SentBytes, got.RecvBytes,
				first.Points[0].BandwidthMBps, base.Messages, base.SentBytes, base.RecvBytes)
		}
	}
	again := runP2P(tinyScale())
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("a second run differs:\n%+v\n%+v", first, again)
	}
}

func TestE25P2PWireShape(t *testing.T) {
	r := E25P2PWire(tinyScale())
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
