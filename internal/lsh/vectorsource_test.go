package lsh

import (
	"math"
	"math/rand"
	"testing"

	"approxcache/internal/feature"
)

// TestVectorIntoReturnsInsertedBits: every index hands back, bit for
// bit, the vector last inserted under an id — through removals that
// recycle arena slots and a replacing insert — into the caller's buffer, and reports ids it does not hold.
func TestVectorIntoReturnsInsertedBits(t *testing.T) {
	const dim = 6
	hyper, err := NewHyperplane(dim, 4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewExact(dim)
	if err != nil {
		t.Fatal(err)
	}
	for name, idx := range map[string]Index{"hyperplane": hyper, "exact": exact} {
		src := idx.(VectorSource)
		rng := rand.New(rand.NewSource(9))
		want := map[ID]feature.Vector{}
		buf := make(feature.Vector, 0, dim)
		for op := 0; op < 400; op++ {
			id := ID(1 + rng.Intn(40))
			if rng.Intn(3) == 0 {
				idx.Remove(id)
				delete(want, id)
			} else {
				v := make(feature.Vector, dim)
				for d := range v {
					v[d] = 4 + rng.Float64()
				}
				v[rng.Intn(dim)] = math.Float64frombits(0x8000000000000000) // −0 survives only a bitwise copy
				if err := idx.Insert(id, v); err != nil {
					t.Fatal(err)
				}
				want[id] = v
			}
			probe := ID(1 + rng.Intn(40))
			got, ok := src.VectorInto(probe, buf)
			w, held := want[probe]
			if ok != held || len(got) != len(w) {
				t.Fatalf("%s op %d: VectorInto(%d) = %v (%v), index holds it: %v", name, op, probe, got, ok, held)
			}
			for d := range w {
				if math.Float64bits(got[d]) != math.Float64bits(w[d]) {
					t.Fatalf("%s op %d: VectorInto(%d)[%d] = %x, inserted %x", name, op, probe, d,
						math.Float64bits(got[d]), math.Float64bits(w[d]))
				}
			}
			if ok && &got[0] != &buf[:1][0] {
				t.Fatalf("%s op %d: VectorInto ignored the caller's buffer", name, op)
			}
		}
	}
}
