package approxcache

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/core"
	"approxcache/internal/dnn"
	"approxcache/internal/p2p"
)

// TestKnobCensus lists every settable leaf value of Options and of every
// config struct the non-test code builds by reflection and compares each
// list with the one checked in under testdata/knobs, so that adding,
// removing or renaming a knob is a deliberate, reviewed edit of that
// file.
func TestKnobCensus(t *testing.T) {
	for _, c := range []struct {
		file string
		typ  reflect.Type
	}{
		{"testdata/knobs/Options.txt", reflect.TypeOf(Options{})},
		{"testdata/knobs/core.Config.txt", reflect.TypeOf(core.Config{})},
		{"testdata/knobs/p2p.ServiceConfig.txt", reflect.TypeOf(p2p.ServiceConfig{})},
		{"testdata/knobs/p2p.ClientConfig.txt", reflect.TypeOf(p2p.ClientConfig{})},
		{"testdata/knobs/cachestore.Config.txt", reflect.TypeOf(cachestore.Config{})},
		{"testdata/knobs/dnn.BatcherConfig.txt", reflect.TypeOf(dnn.BatcherConfig{})},
	} {
		data, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Fields(string(data))
		got := knobs(c.typ, "")
		sort.Strings(got)
		if missing, extra := setDiff(want, got), setDiff(got, want); len(missing)+len(extra) > 0 {
			t.Errorf("%s: %d knobs, %s lists %d\n  gone: %v\n  new:  %v",
				c.typ, len(got), c.file, len(want), missing, extra)
		}
	}
}

// knobs returns the dotted paths of t's exported leaf fields: a struct
// field (other than a time.Time) is walked into, anything else is one
// settable value.
func knobs(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		if f.Type.Kind() == reflect.Struct && f.Type != reflect.TypeOf(time.Time{}) {
			out = append(out, knobs(f.Type, prefix+f.Name+".")...)
			continue
		}
		out = append(out, prefix+f.Name)
	}
	return out
}

// setDiff returns the members of a absent from b, in a's order.
func setDiff(a, b []string) []string {
	in := make(map[string]bool, len(b))
	for _, s := range b {
		in[s] = true
	}
	var out []string
	for _, s := range a {
		if !in[s] {
			out = append(out, s)
		}
	}
	return out
}

// TestExportCensus lists every exported top-level func of the internal
// packages that no non-test Go file references — in this module or in
// the benchmark harness under benchmarks/ — and compares the list with
// testdata/knobs/test-only-funcs.txt, so that an export only tests call
// is a deliberate, reviewed edit of that file. Methods are out of
// scope: they may exist to satisfy an interface.
func TestExportCensus(t *testing.T) {
	const file = "testdata/knobs/test-only-funcs.txt"
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 2 {
			t.Errorf("%s: %q gives no reason it stays", file, fields[0])
		}
		want = append(want, fields[0])
	}
	got, err := testOnlyFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	if missing, extra := setDiff(want, got), setDiff(got, want); len(missing)+len(extra) > 0 {
		t.Errorf("%d exported funcs have no non-test caller, %s lists %d\n  now called or gone: %v\n  new:  %v",
			len(got), file, len(want), missing, extra)
	}
}

// testOnlyFuncs parses every non-test Go file under root and returns,
// sorted, the exported top-level funcs of root/internal/* ("pkg.Name")
// that no such file references: by import path and name from another
// package, by bare name from its own.
func testOnlyFuncs(root string) ([]string, error) {
	const prefix = "approxcache/internal/"
	defined := map[string]bool{}
	used := map[string]bool{}
	err := filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); file != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(file))
		if err != nil {
			return err
		}
		pkg, internal := strings.CutPrefix(filepath.ToSlash(rel), "internal/")
		if !internal {
			pkg = "" // bare names outside internal/* name no internal func
		}
		imports := map[string]string{} // local name → internal package
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if ipkg, ok := strings.CutPrefix(p, prefix); ok {
				name := path.Base(p)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = ipkg
			}
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl: // its name is a definition, not a use
				if n.Recv == nil && n.Name.IsExported() && pkg != "" {
					defined[pkg+"."+n.Name.Name] = true
				}
				if n.Recv != nil {
					ast.Inspect(n.Recv, visit)
				}
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.SelectorExpr: // Sel is a member, never a bare func
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+n.Sel.Name] = true
					return false
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if pkg != "" {
					used[pkg+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	var out []string
	for name := range defined {
		if !used[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, err
}
