package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
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

// The hand-written docs: the figure and cell checks read these, the
// citation check these, EXPERIMENTS.md and the Go sources.
var handDocs = []string{"DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"}

// repoRoot is the module root, relative to this package.
const repoRoot = "../.."

func readDoc(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(repoRoot, name))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// docText is r as its generated block holds it.
func docText(r Report) string {
	lines := strings.Split(strings.TrimSuffix(r.String(), "\n"), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " \t")
	}
	return strings.Join(lines, "\n")
}

// simReports runs every simulated experiment at the default scale once
// per test binary; the block test and the cell test both read it.
var simReports = sync.OnceValues(func() (map[string]Report, error) {
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
		return nil, err
	}
	byID := make(map[string]Report, len(sims))
	for i, e := range sims {
		byID[e.ID] = reports[i]
	}
	return byID, nil
})

func mustSimReports(t *testing.T) map[string]Report {
	t.Helper()
	reports, err := simReports()
	if err != nil {
		t.Fatal(err)
	}
	return reports
}

// TestExperimentsDocMatchesApproxbench reruns every simulated
// experiment and requires EXPERIMENTS.md to hold its table, once, as
// approxbench prints it. A differing line fails with the block to
// paste; so does a simulated experiment without a block, and a block
// for a retired or wall-clock ID (whose record is its BENCH_*.json).
func TestExperimentsDocMatchesApproxbench(t *testing.T) {
	doc := readDoc(t, "EXPERIMENTS.md")
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
	reports := mustSimReports(t)
	for _, e := range All() {
		r, sim := reports[e.ID]
		if !sim {
			continue
		}
		want := docText(r)
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

// A cell marker quotes one cell of a simulated experiment's table in
// running text:
//
//	<!-- approxbench-cell E1 "approx (local)" latency-reduction -->94.6%<!-- /approxbench-cell -->
//
// names the experiment, the row by its first cell and the column by its
// header (either quoted when it holds a space); the text between the
// markers must be that cell as approxbench prints it at DefaultScale.
var (
	docCell     = regexp.MustCompile(`<!-- approxbench-cell (\S+) ("[^"]*"|\S+) ("[^"]*"|\S+) -->(.*?)<!-- /approxbench-cell -->`)
	docCellOpen = regexp.MustCompile(`<!-- /?approxbench-cell`)
)

// TestDocCellsMatchApproxbench checks every cell marker in the
// hand-written docs against the reports the block test computed.
func TestDocCellsMatchApproxbench(t *testing.T) {
	reports := mustSimReports(t)
	for _, name := range handDocs {
		doc := readDoc(t, name)
		cells := docCell.FindAllStringSubmatchIndex(doc, -1)
		if n := len(docCellOpen.FindAllString(doc, -1)); n != 2*len(cells) {
			t.Errorf("%s: %d cell markers for %d well-formed cells (open and close on one line)", name, n, len(cells))
		}
		for _, c := range cells {
			at := fmt.Sprintf("%s:%d", name, lineOf(doc, c[0]))
			id, row, col, got := doc[c[2]:c[3]], unquote(doc[c[4]:c[5]]), unquote(doc[c[6]:c[7]]), doc[c[8]:c[9]]
			want, err := reportCell(reports, id, row, col)
			if err != nil {
				t.Errorf("%s: %v", at, err)
			} else if got != want {
				t.Errorf("%s: %s %q %s reads %q, approxbench prints %q", at, id, row, col, got, want)
			}
		}
	}
}

func unquote(s string) string { return strings.Trim(s, `"`) }

// reportCell is the cell of report id in the row whose first cell is
// row, under the header col.
func reportCell(reports map[string]Report, id, row, col string) (string, error) {
	r, ok := reports[id]
	if !ok {
		return "", fmt.Errorf("%s is not a simulated experiment", id)
	}
	ci := slices.Index(r.Headers, col)
	if ci < 0 {
		return "", fmt.Errorf("%s has no column %q (headers %q)", id, col, r.Headers)
	}
	for _, cells := range r.Rows {
		if len(cells) > ci && cells[0] == row {
			return cells[ci], nil
		}
	}
	return "", fmt.Errorf("%s has no row %q", id, row)
}

func lineOf(doc string, off int) int { return 1 + strings.Count(doc[:off], "\n") }

// A figure is a number followed by one of the units a measurement is
// quoted in. A figure in a hand-written doc is either a cell marker or
// a configuration constant on docConstants; anything else is a copy of
// a measurement, which goes stale when the code moves, and belongs in
// the record it came from (an EXPERIMENTS.md block, a BENCH_*.json row,
// a CHANGES.md entry), with a pointer here.
var docFigure = regexp.MustCompile(`\d[\d.,]*\s?(?:%|×|(?:pp|ns|µs|ms|mJ|KiB)\b)`)

// A command-line flag and its value (`-deadline 20ms`, inline or in a
// fenced command) is an input someone types, not a figure: the check
// blanks it before looking.
var docFlag = regexp.MustCompile("(?:^|[\\s`(])-[a-z][a-z0-9-]*[ =][^\\s`]+")

// docConstants are the figures a hand-written doc may state outright:
// configuration constants, each with what it restates. A literal is
// blanked wherever it stands whole: not inside a longer number.
var docConstants = []struct{ literal, source string }{
	{"94%", "the poster's claim, quoted (PAPER.md)"},
	{"12 × 4", "lsh.ShippedBits × lsh.ShippedTables"},
	{"8×8", "feature.DefaultExtractor's GridHistogram Cols × Rows"},
	{"16×16", "dnn's extractor, GridHistogram{Cols: 16, Rows: 16}"},
	{"200 µs", "core.imuGateLatency"},
	{"1 ms", "core.diffLatency, core.lookupLatency"},
	{"4 ms", "core.featureLatency"},
	{"0.05 mJ", "core.imuGateEnergyMJ"},
	{"0.3 mJ", "core.diffEnergyMJ, core.lookupEnergyMJ"},
	{"1.2 mJ", "core.featureEnergyMJ"},
	{"20 ms", "core.retryBackoff"},
	{"10 ms", "core.retryJitter"},
	{"500 ms", "core.cooldown"},
	{"250 ms", "p2p.baseBackoff"},
	{"±20 %", "p2p.jitterFrac"},
	{"5 ms", "dnn.DefaultBatcherConfig's MaxWait"},
	{"80 ms", "eval.chaosDeadCost, eval.overloadDeadline"},
	{"6.25 %", "metrics.subBuckets: a bucket spans 1/16 of its lower edge"},
}

// blankFigureFree returns doc with every cell marker, flag and
// allowed constant replaced by spaces (newlines kept, so offsets still
// give line numbers).
func blankFigureFree(doc string) string {
	b := []byte(doc)
	blank := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if b[i] != '\n' {
				b[i] = ' '
			}
		}
	}
	for _, m := range docCell.FindAllStringIndex(doc, -1) {
		blank(m[0], m[1])
	}
	for _, m := range docFlag.FindAllStringIndex(doc, -1) {
		blank(m[0], m[1])
	}
	for _, c := range docConstants {
		for off := 0; ; {
			i := strings.Index(doc[off:], c.literal)
			if i < 0 {
				break
			}
			lo, hi := off+i, off+i+len(c.literal)
			before := lo > 0 && (isDigit(doc[lo-1]) || doc[lo-1] == '.')
			after := hi < len(doc) && (isDigit(doc[hi]) || doc[hi] == '.' && hi+1 < len(doc) && isDigit(doc[hi+1]))
			if !before && !after {
				blank(lo, hi)
			}
			off = hi
		}
	}
	return string(b)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// TestDocFiguresAreGenerated fails on every figure in the hand-written
// docs that is neither a cell marker nor an allowed constant.
func TestDocFiguresAreGenerated(t *testing.T) {
	if len(docConstants) > 30 {
		t.Errorf("%d allowed constants; the list is for configuration, keep it under 30", len(docConstants))
	}
	for _, name := range handDocs {
		doc := blankFigureFree(readDoc(t, name))
		for _, m := range docFigure.FindAllStringIndex(doc, -1) {
			t.Errorf("%s:%d: figure %q is not generated: put it in a cell marker, or point at the record that holds it", name, lineOf(doc, m[0]), doc[m[0]:m[1]])
		}
	}
}

var (
	docSection = regexp.MustCompile(`(?m)^## (E\d+) — `)
	docNumber  = regexp.MustCompile(`\d+(?:\.\d+)?`)
)

// TestExperimentsDocProseQuotesItsBlock enforces EXPERIMENTS.md's own
// rule: the prose of an experiment's section quotes no figure that is
// not in that experiment's block (or on docConstants). A section
// without a block — a wall-clock experiment or a tombstone — may quote
// constants only.
func TestExperimentsDocProseQuotesItsBlock(t *testing.T) {
	doc := readDoc(t, "EXPERIMENTS.md")
	heads := docSection.FindAllStringSubmatchIndex(doc, -1)
	for _, h := range heads {
		end := len(doc)
		if j := strings.Index(doc[h[1]:], "\n## "); j >= 0 {
			end = h[1] + j + 1
		}
		id, section := doc[h[2]:h[3]], doc[h[0]:end]
		inBlock := make(map[float64]bool)
		prose := section
		if b := docBlock.FindStringSubmatchIndex(section); b != nil {
			for _, n := range docNumber.FindAllString(section[b[4]:b[5]], -1) {
				v, _ := strconv.ParseFloat(n, 64)
				inBlock[v] = true
			}
			prose = section[:b[0]] + strings.Repeat("\n", strings.Count(section[b[0]:b[1]], "\n")) + section[b[1]:]
		}
		prose = blankFigureFree(prose)
		for _, m := range docFigure.FindAllStringIndex(prose, -1) {
			v, _ := strconv.ParseFloat(docNumber.FindString(prose[m[0]:m[1]]), 64)
			if !inBlock[v] {
				t.Errorf("EXPERIMENTS.md:%d: %s's prose quotes %q, which its block does not hold", lineOf(doc, h[0])+lineOf(prose, m[0])-1, id, prose[m[0]:m[1]])
			}
		}
	}
}

// A citation names a doc and one of its headings, quoted:
// DESIGN, DESIGN.md or DESIGN.md's, or EXPERIMENTS.md, then the heading
// in double quotes, possibly wrapped across lines (and comment markers).
// An EXPERIMENTS.md heading may also be cited by its ID ("E22").
var (
	docCitation = regexp.MustCompile(`\b(DESIGN(?:\.md(?:'s)?)?|EXPERIMENTS\.md)\s+"([^"]+)"`)
	docHeading  = regexp.MustCompile(`(?m)^#{1,6} (.+?)\s*$`)
	docWrap     = regexp.MustCompile(`\s*\n\s*(?://\s*)?`)
)

// TestDocCitationsNameHeadings fails on a citation whose heading does
// not exist, in the docs and in every Go file outside benchmarks/.
// CHANGES.md and ROADMAP.md are history, and benchmarks/ changes only
// with the benchmark, so neither is read.
func TestDocCitationsNameHeadings(t *testing.T) {
	headings := map[string]map[string]bool{"DESIGN": {}, "EXPERIMENTS": {}}
	for doc, set := range headings {
		for _, m := range docHeading.FindAllStringSubmatch(readDoc(t, doc+".md"), -1) {
			set[m[1]] = true
			if id, _, ok := strings.Cut(m[1], " — "); ok {
				set[id] = true
			}
		}
	}
	files := append([]string{"EXPERIMENTS.md"}, handDocs...)
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != repoRoot && (strings.HasPrefix(d.Name(), ".") || d.Name() == "benchmarks" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") {
			rel, _ := filepath.Rel(repoRoot, path)
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		doc := readDoc(t, name)
		for _, m := range docCitation.FindAllStringSubmatchIndex(doc, -1) {
			target := strings.TrimSuffix(strings.TrimSuffix(doc[m[2]:m[3]], "'s"), ".md")
			heading := docWrap.ReplaceAllString(doc[m[4]:m[5]], " ")
			if !headings[target][heading] {
				t.Errorf("%s:%d: cites %s.md %q, which has no such heading", name, lineOf(doc, m[0]), target, heading)
			}
		}
	}
}

// A cited test is a Test or Fuzz name in running text; a test is a
// top-level func of that name in a _test.go file of the repository,
// the benchmark harness's included.
var (
	docTestName = regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z0-9_]\w*`)
	testFunc    = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
)

// TestDocCitedTestsExist fails on a test name cited in the docs or in
// testdata/knobs that no _test.go file defines: a deleted or renamed
// test leaves its citations pointing at nothing.
func TestDocCitedTestsExist(t *testing.T) {
	defined := map[string]bool{}
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != repoRoot && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				defined[m[1]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	knobs, err := filepath.Glob(filepath.Join(repoRoot, "testdata", "knobs", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	files := append([]string{"EXPERIMENTS.md"}, handDocs...)
	for _, k := range knobs {
		rel, _ := filepath.Rel(repoRoot, k)
		files = append(files, rel)
	}
	for _, name := range files {
		doc := readDoc(t, name)
		for _, m := range docTestName.FindAllStringIndex(doc, -1) {
			if cited := doc[m[0]:m[1]]; !defined[cited] {
				t.Errorf("%s:%d: cites %s, which no _test.go file defines", name, lineOf(doc, m[0]), cited)
			}
		}
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
