package lsh

import (
	"math/rand"
	"sort"
	"testing"
)

// sortSelect is the specification kSelector must match: rank everything
// by (distance, id) and truncate to k.
func sortSelect(ns []Neighbor, k int) []Neighbor {
	out := append([]Neighbor(nil), ns...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func runSelector(ns []Neighbor, k int) []Neighbor {
	var sel kSelector
	sel.reset(k, nil)
	for _, n := range ns {
		sel.add(n)
	}
	return sel.finish()
}

func checkSelect(t *testing.T, ns []Neighbor, k int) {
	t.Helper()
	got := runSelector(ns, k)
	want := sortSelect(ns, k)
	if len(got) != len(want) {
		t.Fatalf("k=%d n=%d: selected %d, want %d", k, len(ns), len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("k=%d n=%d pos %d: got %+v, want %+v\ngot:  %v\nwant: %v",
				k, len(ns), i, got[i], want[i], got, want)
		}
	}
}

// genNeighbors draws n candidates; quantizing distances to a few levels
// forces heavy ties so the ID tie-break is exercised.
func genNeighbors(rng *rand.Rand, n int, quantize bool) []Neighbor {
	ns := make([]Neighbor, n)
	for i := range ns {
		d := rng.Float64()
		if quantize {
			d = float64(int(d*4)) / 4
		}
		ns[i] = Neighbor{ID: ID(rng.Intn(n + 4)), Distance: d}
	}
	return ns
}

func TestSelectorMatchesSortAcrossRegimes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// k from the programs' 4 up to 100, well past any k a program
	// uses; n straddling k exercises partial fills.
	for _, k := range []int{1, 2, 4, 33, 100} {
		for _, n := range []int{0, 1, k - 1, k, k + 1, 3 * k, 500} {
			if n < 0 {
				continue
			}
			for _, quantize := range []bool{false, true} {
				for rep := 0; rep < 20; rep++ {
					checkSelect(t, genNeighbors(rng, n, quantize), k)
				}
			}
		}
	}
}

func TestSelectorReusesBuffer(t *testing.T) {
	buf := make([]Neighbor, 0, 8)
	var sel kSelector
	sel.reset(4, buf)
	for i := 0; i < 100; i++ {
		sel.add(Neighbor{ID: ID(i), Distance: float64(100 - i)})
	}
	got := sel.finish()
	if len(got) != 4 {
		t.Fatalf("selected %d, want 4", len(got))
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("selector did not write into the caller's buffer")
	}
	for i, n := range got {
		if want := ID(99 - i); n.ID != want {
			t.Fatalf("pos %d: got ID %d, want %d", i, n.ID, want)
		}
	}
}

// FuzzSelectorMatchesSort is the property test as a fuzz target: any
// (seed, k, n, quantization) must satisfy selector ≡ sort-then-truncate.
func FuzzSelectorMatchesSort(f *testing.F) {
	f.Add(int64(1), 4, 512, true)
	f.Add(int64(2), 64, 100, false)
	f.Add(int64(3), 1, 1, true)
	f.Add(int64(4), 33, 32, true)
	f.Fuzz(func(t *testing.T, seed int64, k, n int, quantize bool) {
		if k <= 0 || k > 1024 || n < 0 || n > 4096 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		ns := genNeighbors(rng, n, quantize)
		got := runSelector(ns, k)
		want := sortSelect(ns, k)
		if len(got) != len(want) {
			t.Fatalf("selected %d, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("pos %d: got %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}
