package approxcache

import (
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"approxcache/internal/core"
)

// TestKnobCensus lists every settable leaf value of Options and
// core.Config by reflection and compares the list with the one checked
// in under testdata/knobs, so that adding, removing or renaming a knob
// is a deliberate, reviewed edit of that file.
func TestKnobCensus(t *testing.T) {
	for _, c := range []struct {
		file string
		typ  reflect.Type
	}{
		{"testdata/knobs/Options.txt", reflect.TypeOf(Options{})},
		{"testdata/knobs/core.Config.txt", reflect.TypeOf(core.Config{})},
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
