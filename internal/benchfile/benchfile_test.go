package benchfile

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestWriteStampsHostAndKeepsFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	report := struct {
		Speedup float64  `json:"speedup"`
		Modes   []string `json:"modes"`
	}{3.5, []string{"a", "b"}}
	if err := Write(path, report); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Host    Host     `json:"host"`
		Speedup float64  `json:"speedup"`
		Modes   []string `json:"modes"`
	}
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatalf("%v\n%s", err, blob)
	}
	if got.Speedup != 3.5 || len(got.Modes) != 2 {
		t.Fatalf("report fields lost: %s", blob)
	}
	h := got.Host
	if h.GoVersion != runtime.Version() || h.GOOS != runtime.GOOS || h.GOARCH != runtime.GOARCH ||
		h.NumCPU < 1 || h.GOMAXPROCS < 1 || h.Commit == "" {
		t.Fatalf("host = %+v", h)
	}
	text := string(blob)
	if hi, si, mi := strings.Index(text, `"host"`), strings.Index(text, `"speedup"`), strings.Index(text, `"modes"`); !(hi < si && si < mi) {
		t.Fatalf("member order not host, then the report's own:\n%s", text)
	}
	if !strings.HasSuffix(text, "}\n") {
		t.Fatalf("no trailing newline: %q", text[len(text)-5:])
	}
}

func TestWriteRejectsNonObjects(t *testing.T) {
	dir := t.TempDir()
	for name, v := range map[string]any{
		"array":  []int{1},
		"scalar": 3,
		"empty":  struct{}{},
		"nil":    nil,
		"cyclic": func() {},
	} {
		path := filepath.Join(dir, name+".json")
		if err := Write(path, v); err == nil {
			t.Errorf("%s accepted", name)
		}
		if _, err := os.Stat(path); err == nil {
			t.Errorf("%s: a file was written", name)
		}
	}
	if err := Write(filepath.Join(dir, "no", "such", "dir.json"), map[string]int{"a": 1}); err == nil {
		t.Error("unwritable path accepted")
	}
}
