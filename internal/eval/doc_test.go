package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// A generated block in EXPERIMENTS.md is the text approxbench prints for
// one experiment at DefaultScale, trailing blanks trimmed, fenced
// between its markers.
var (
	docBlock = regexp.MustCompile("(?m)^<!-- approxbench (\\S+) -->\n```\n((?s:.*?))\n```\n<!-- /approxbench -->$")
	docOpen  = regexp.MustCompile(`(?m)^<!-- approxbench `)
	docClose = regexp.MustCompile(`(?m)^<!-- /approxbench -->$`)
)

// docText is r as its generated block holds it.
func docText(r Report) string {
	lines := strings.Split(strings.TrimSuffix(r.String(), "\n"), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " \t")
	}
	return strings.Join(lines, "\n")
}

// TestExperimentsDocMatchesApproxbench reruns every simulated
// experiment and requires EXPERIMENTS.md to hold its table, once, as
// approxbench prints it. A differing line fails with the block to
// paste; so does a simulated experiment without a block, and a block
// for a retired or wall-clock ID (whose record is its BENCH_*.json).
func TestExperimentsDocMatchesApproxbench(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	matches := docBlock.FindAllStringSubmatch(doc, -1)
	if o, c := len(docOpen.FindAllString(doc, -1)), len(docClose.FindAllString(doc, -1)); o != len(matches) || c != len(matches) {
		t.Fatalf("%d opening and %d closing markers for %d blocks of marker, fence, table, fence, marker", o, c, len(matches))
	}
	blocks := make(map[string]string)
	for _, m := range matches {
		if e, err := ByID(m[1]); err != nil || e.ID != m[1] || e.WallClock {
			t.Errorf("block for %s, which is retired, unknown or wall-clock", m[1])
		}
		if _, dup := blocks[m[1]]; dup {
			t.Errorf("a second block for %s", m[1])
		}
		blocks[m[1]] = m[2]
	}
	var sims []Experiment
	for _, e := range All() {
		if !e.WallClock {
			sims = append(sims, e)
		}
	}
	s := DefaultScale()
	s.Workers = runtime.NumCPU()
	reports, err := RunExperiments(sims, s)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range sims {
		want := docText(reports[i])
		got, ok := blocks[e.ID]
		if got == want {
			continue
		}
		paste := fmt.Sprintf("<!-- approxbench %s -->\n```\n%s\n```\n<!-- /approxbench -->", e.ID, want)
		if !ok {
			t.Errorf("%s has no block in EXPERIMENTS.md; paste:\n%s", e.ID, paste)
			continue
		}
		g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
		l := 0
		for l < len(g) && l < len(w) && g[l] == w[l] {
			l++
		}
		line := func(s []string) string {
			if l < len(s) {
				return fmt.Sprintf("%q", s[l])
			}
			return "(end of block)"
		}
		t.Errorf("%s, block line %d:\n  doc:         %s\n  approxbench: %s\npaste:\n%s", e.ID, l+1, line(g), line(w), paste)
	}
}

// TestE18SmallScaleMatchesParentGolden pins E18 at smallScale, where
// some frames overrun the next one's arrival, so the phase a frame is
// windowed into depends on the clock it starts at; the default scale
// never shows that. Re-record the digest only by running this test at
// the commit before a change that means to move it.
func TestE18SmallScaleMatchesParentGolden(t *testing.T) {
	const want = "8bd9e49dc6a373f486423143ed91cb1e364e692d0dfb23fa8af8b5dcb07ef9eb"
	r := E18ChaosResilience(smallScale())
	if sum := sha256.Sum256([]byte(r.String())); hex.EncodeToString(sum[:]) != want {
		t.Errorf("E18 at smallScale: table digest %x, want %s\n%s", sum, want, r)
	}
}
