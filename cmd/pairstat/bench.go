package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// benchRow is one Go benchmark's runs on both sides, in run order.
type benchRow struct {
	pkg, name  string
	ns, allocs [2][]float64 // [side][run]
}

// readBench reads Go benchmark output, scripts/pairs-hot.sh's record:
// each run's lines follow a `side: parent` or `side: change` line, and
// `pkg:` lines name the package of the rows after them. Rows come back
// in the order they first appear. A row without ns/op is an error.
func readBench(r io.Reader) ([]*benchRow, error) {
	var rows []*benchRow
	byKey := map[string]*benchRow{}
	sd, pkg := -1, ""
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if v, ok := strings.CutPrefix(text, "side: "); ok {
			if v != "parent" && v != "change" {
				return nil, fmt.Errorf("runs line %d: side %q", line, v)
			}
			sd = side(v)
			continue
		}
		if v, ok := strings.CutPrefix(text, "pkg: "); ok {
			pkg = v
			continue
		}
		f := strings.Fields(text)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if sd < 0 {
			return nil, fmt.Errorf("runs line %d: benchmark before any side line", line)
		}
		ns, allocs := -1.0, 0.0
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("runs line %d: %q: %w", line, f[i], err)
			}
			switch f[i+1] {
			case "ns/op":
				ns = v
			case "allocs/op":
				allocs = v
			}
		}
		if ns < 0 {
			return nil, fmt.Errorf("runs line %d: no ns/op", line)
		}
		name := strings.TrimPrefix(f[0], "Benchmark")
		row := byKey[pkg+" "+name]
		if row == nil {
			row = &benchRow{pkg: pkg, name: name}
			byKey[pkg+" "+name] = row
			rows = append(rows, row)
		}
		row.ns[sd] = append(row.ns[sd], ns)
		row.allocs[sd] = append(row.allocs[sd], allocs)
	}
	return rows, sc.Err()
}

// summariseBench prints each row's ns/op over the pairs both sides ran
// (the i-th run of a side pairs with the other side's i-th) and its
// allocs/op medians, and reports whether no row's allocs/op median rose.
func summariseBench(w io.Writer, rows []*benchRow) bool {
	ok, pkg := true, ""
	nsop := metric{Name: "ns/op", Better: "lower"}
	for _, r := range rows {
		if r.pkg != pkg {
			pkg = r.pkg
			fmt.Fprintf(w, "\n%s\n", pkg)
			fmt.Fprintf(w, "  %-36s %14s %12s %14s %12s %6s %8s\n", "ns/op", "parent median", "IQR", "change median", "IQR", "wins", "change")
		}
		n := min(len(r.ns[0]), len(r.ns[1]))
		if n == 0 {
			fmt.Fprintf(w, "  %-36s runs on one side only\n", r.name)
			continue
		}
		fmt.Fprintf(w, "  %-36s %s\n", r.name, compare(nsop, r.ns[0][:n], r.ns[1][:n]))
		if pa, ca := quantile(r.allocs[0][:n], 0.5), quantile(r.allocs[1][:n], 0.5); ca > pa {
			fmt.Fprintf(w, "  ALLOCS ROSE: %s allocs/op median %v → %v\n", r.name, pa, ca)
			ok = false
		}
	}
	return ok
}
