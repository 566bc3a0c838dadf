package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"approxcache/internal/trace"
)

func TestSelectSpecs(t *testing.T) {
	all, err := selectSpecs("all", 100, 1)
	if err != nil || len(all) != 4 {
		t.Fatalf("all = %d specs, err %v", len(all), err)
	}
	for _, name := range []string{"stationary-heavy", "handheld-mix", "walking-tour", "panning-sweep"} {
		specs, err := selectSpecs(name, 100, 1)
		if err != nil || len(specs) != 1 || specs[0].Name != name {
			t.Fatalf("%s: %v, %v", name, specs, err)
		}
	}
	if _, err := selectSpecs("flying", 100, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunWritesSpecFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "spec.json")
	if err := run([]string{"-workload", "walking-tour", "-frames", "90", "-out", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := trace.DecodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "walking-tour" || spec.TotalFrames() != 90 {
		t.Fatalf("spec = %+v", spec)
	}
}

func TestRunOutRequiresSingleWorkload(t *testing.T) {
	out := filepath.Join(t.TempDir(), "spec.json")
	if err := run([]string{"-workload", "all", "-out", out}); err == nil {
		t.Fatal("-out with all workloads accepted")
	}
}

func TestRunSummary(t *testing.T) {
	if err := run([]string{"-workload", "panning-sweep", "-frames", "60", "-summary"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRender(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "frames")
	if err := run([]string{"-workload", "walking-tour", "-frames", "45",
		"-render", dir, "-every", "15"}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("rendered %d files, want 3", len(entries))
	}
	if err := run([]string{"-workload", "all", "-render", dir}); err == nil {
		t.Fatal("-render with all workloads accepted")
	}
	if err := run([]string{"-workload", "walking-tour", "-render", dir, "-every", "0"}); err == nil {
		t.Fatal("zero stride accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunOutUnwritable(t *testing.T) {
	err := run([]string{"-workload", "walking-tour", "-out", filepath.Join(t.TempDir(), "no", "dir", "x.json")})
	if err == nil || !strings.Contains(err.Error(), "no such file") {
		t.Fatalf("err = %v", err)
	}
}
