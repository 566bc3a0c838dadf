// Package eval is the experiment harness: it builds the workloads,
// nodes, and device groups for experiments E1–E25 (E24 is retired; see
// DESIGN.md), runs them on virtual clocks (real ones for the serving
// and lookup benchmarks), and renders the tables and series the
// evaluation reports. Every experiment takes a Scale and nothing else.
// cmd/approxbench is its CLI front end and bench_test.go its testing.B
// front end.
package eval

import (
	"fmt"
	"strings"
	"time"
)

// Report is one rendered experiment result: a titled table plus notes.
type Report struct {
	// ID is the experiment id, "E1" to "E25".
	ID string
	// Title describes what the table shows.
	Title string
	// Headers are the column names.
	Headers []string
	// Rows are the table body, one row per configuration.
	Rows [][]string
	// Notes carry the expected shape and caveats.
	Notes []string
	// Data is the typed report the table was rendered from, for the
	// experiments whose numbers a gate judges (E20–E23, E25); nil
	// otherwise. `approxbench -json` writes it as the BENCH_*.json file.
	Data any
}

// String renders the report as an aligned ASCII table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	if len(r.Headers) == 0 {
		return b.String()
	}
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			// A row may carry more cells than there are headers (a
			// malformed report); render the extras unpadded rather than
			// panic mid-String.
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s", w, cell)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Headers)
	rule := make([]string, len(r.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the report as RFC 4180 CSV (header row first). Notes are
// omitted; cells containing commas or quotes are quoted.
func (r Report) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvEscape(cell))
		}
		b.WriteByte('\n')
	}
	writeRow(r.Headers)
	for _, row := range r.Rows {
		writeRow(row)
	}
	return b.String()
}

// Markdown renders the report as a GitHub-flavored markdown table with
// the title as a heading and notes as a trailing list.
func (r Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", r.ID, r.Title)
	if len(r.Headers) == 0 {
		return b.String()
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for _, cell := range cells {
			b.WriteString(" ")
			b.WriteString(strings.ReplaceAll(cell, "|", "\\|"))
			b.WriteString(" |")
		}
		b.WriteByte('\n')
	}
	writeRow(r.Headers)
	rule := make([]string, len(r.Headers))
	for i := range rule {
		rule[i] = "---"
	}
	writeRow(rule)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	return b.String()
}

// csvEscape quotes a cell when needed.
func csvEscape(cell string) string {
	if !strings.ContainsAny(cell, ",\"\n") {
		return cell
	}
	return `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
}

// fmtDur renders a duration at millisecond precision for tables.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}

// fmtPct renders a fraction as a percentage.
func fmtPct(f float64) string {
	return fmt.Sprintf("%.1f%%", f*100)
}

// fmtF renders a float with two decimals.
func fmtF(f float64) string {
	return fmt.Sprintf("%.2f", f)
}
