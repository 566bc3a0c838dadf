// Package benchfile is the one writer of the BENCH_*.json records: a
// report object stamped with the host it was measured on, so a recorded
// number can be read against the machine that produced it.
package benchfile

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Host describes where a record was measured.
type Host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CPUModel is /proc/cpuinfo's first "model name", empty where that
	// file is unreadable.
	CPUModel string `json:"cpu_model,omitempty"`
	// Commit is the checkout's HEAD, "unknown" outside a git checkout.
	Commit string `json:"commit"`
}

// CurrentHost describes this process's host and the working directory's
// checkout.
func CurrentHost() Host {
	h := Host{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if key, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
				h.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// Write records report at path as indented JSON with a leading "host"
// member. report must marshal to a JSON object; its own members follow
// in their declared order.
func Write(path string, report any) error {
	body, err := json.Marshal(report)
	if err != nil {
		return fmt.Errorf("benchfile: %s: %w", path, err)
	}
	if len(body) < 3 || body[0] != '{' {
		return fmt.Errorf("benchfile: %s: report is not a non-empty JSON object", path)
	}
	host, err := json.Marshal(CurrentHost())
	if err != nil {
		return fmt.Errorf("benchfile: %s: %w", path, err)
	}
	flat := append(append([]byte(`{"host":`), host...), ',')
	flat = append(flat, body[1:]...)
	var out bytes.Buffer
	if err := json.Indent(&out, flat, "", "  "); err != nil {
		return fmt.Errorf("benchfile: %s: %w", path, err)
	}
	out.WriteByte('\n')
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		return fmt.Errorf("benchfile: %w", err)
	}
	return nil
}
