package main

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"approxcache"
)

func TestSplitComma(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"a", []string{"a"}},
		{"a,b", []string{"a", "b"}},
		{"a,,b,", []string{"a", "b"}},
		{",x", []string{"x"}},
	}
	for _, tt := range tests {
		got := splitComma(tt.in)
		if len(got) != len(tt.want) {
			t.Fatalf("splitComma(%q) = %v, want %v", tt.in, got, tt.want)
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Fatalf("splitComma(%q) = %v, want %v", tt.in, got, tt.want)
			}
		}
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"mobilenet-v2", "squeezenet", "inception-v3", "resnet-50"} {
		p, err := profileByName(name)
		if err != nil || p.Name != name {
			t.Fatalf("%s: %+v, %v", name, p, err)
		}
	}
	if _, err := profileByName("gpt-4"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestRunBadModel(t *testing.T) {
	if err := run([]string{"-model", "nope"}); err == nil {
		t.Fatal("bad model accepted")
	}
}

// TestRunBadFlag: an unknown flag, and a negative count or duration
// (or fewer than one session), is refused before any workload is built.
func TestRunBadFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"-frames", "-3"},
		{"-warm", "-5", "-frames", "10"},
		{"-sessions", "2", "-warm", "-5", "-frames", "10"},
		{"-batch", "-4", "-frames", "10"},
		{"-sessions", "2", "-batch", "-4", "-frames", "10"},
		{"-deadline", "-1s", "-frames", "10"},
		{"-sessions", "0", "-frames", "10"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if err := run(args); err == nil {
				t.Fatalf("run(%q) accepted", args)
			}
		})
	}
}

func TestRunStandalone(t *testing.T) {
	if err := run([]string{"-frames", "40", "-warm", "20", "-addr", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMultiSession(t *testing.T) {
	if err := run([]string{
		"-sessions", "4", "-batch", "4",
		"-frames", "30", "-addr", "127.0.0.1:0",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMultiSessionSnapshot(t *testing.T) {
	path := t.TempDir() + "/node.snap"
	// First run saves the store its sessions share...
	if err := run([]string{
		"-sessions", "2", "-frames", "20", "-addr", "127.0.0.1:0",
		"-snapshot", path,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	// ...and a single-session node warm-starts from it.
	if err := run([]string{
		"-frames", "10", "-addr", "127.0.0.1:0",
		"-snapshot", path,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithUnreachablePeer(t *testing.T) {
	// An unreachable peer must degrade to local operation, not fail.
	err := run([]string{
		"-frames", "30", "-addr", "127.0.0.1:0",
		"-peers", "127.0.0.1:1",
	})
	if err != nil {
		t.Fatalf("unreachable peer broke the node: %v", err)
	}
}

func TestRunMultiSessionWithUnreachablePeer(t *testing.T) {
	// The pool path probes -peers too: a dead address must leave session
	// 0 running local-only, not fail the node.
	err := run([]string{
		"-sessions", "2", "-frames", "30", "-addr", "127.0.0.1:0",
		"-peers", "127.0.0.1:1",
	})
	if err != nil {
		t.Fatalf("unreachable peer broke the node: %v", err)
	}
}

// newTestCache builds a small standalone cache on a virtual clock.
func newTestCache(t *testing.T) *approxcache.Cache {
	t.Helper()
	w, err := approxcache.GenerateWorkload(approxcache.StationaryHeavyWorkload(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	classifier, err := approxcache.NewSimulatedClassifier(approxcache.MobileNetV2, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := approxcache.New(classifier, approxcache.Options{Clock: approxcache.NewVirtualClock()})
	if err != nil {
		t.Fatal(err)
	}
	return cache
}

func TestJoinPeersDropsUnreachable(t *testing.T) {
	srv, err := newTestCache(t).ServeTCP("live", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := joinPeers(newTestCache(t), "me", []string{"127.0.0.1:1", srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := client.Peers(), []string{srv.Addr()}; !reflect.DeepEqual(got, want) {
		t.Fatalf("peer set = %v, want only the live peer %v", got, want)
	}
}
