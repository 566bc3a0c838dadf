package lsh

// Differential tests pinning the arena-based index to the map-based
// implementation it replaced. refIndex below is a faithful copy of the
// old data structures and algorithms (per-plane vectors, map buckets,
// map dedup, full sort.Slice ranking). Because the rewrite preserved
// hyperplane RNG draw order and every floating-point accumulation
// order, results must match bit for bit, not just approximately.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"approxcache/internal/feature"
)

type refIndex struct {
	dim, bits, tables int
	planes            [][]feature.Vector // [table][bit]
	buckets           []map[uint64][]ID
	vecs              map[ID]feature.Vector
	sigs              map[ID][]uint64
}

func newRefIndex(dim, bits, tables int, seed int64) *refIndex {
	rng := rand.New(rand.NewSource(seed))
	x := &refIndex{
		dim:     dim,
		bits:    bits,
		tables:  tables,
		planes:  make([][]feature.Vector, tables),
		buckets: make([]map[uint64][]ID, tables),
		vecs:    make(map[ID]feature.Vector),
		sigs:    make(map[ID][]uint64),
	}
	for t := 0; t < tables; t++ {
		x.planes[t] = make([]feature.Vector, bits)
		x.buckets[t] = make(map[uint64][]ID)
		for b := 0; b < bits; b++ {
			p := make(feature.Vector, dim)
			for d := 0; d < dim; d++ {
				p[d] = rng.NormFloat64()
			}
			x.planes[t][b] = p
		}
	}
	return x
}

func (x *refIndex) signature(t int, v feature.Vector) uint64 {
	var sig uint64
	for b, plane := range x.planes[t] {
		var dot float64
		for d := range plane {
			dot += float64(plane[d] * v[d])
		}
		if dot >= 0 {
			sig |= 1 << uint(b)
		}
	}
	return sig
}

func (x *refIndex) insert(id ID, v feature.Vector) {
	vc := v.Clone()
	if _, exists := x.vecs[id]; exists {
		x.remove(id)
	}
	sigs := make([]uint64, x.tables)
	for t := 0; t < x.tables; t++ {
		sig := x.signature(t, vc)
		sigs[t] = sig
		x.buckets[t][sig] = append(x.buckets[t][sig], id)
	}
	x.vecs[id] = vc
	x.sigs[id] = sigs
}

func (x *refIndex) remove(id ID) {
	sigs, ok := x.sigs[id]
	if !ok {
		return
	}
	for t, sig := range sigs {
		bucket := x.buckets[t][sig]
		for i, bid := range bucket {
			if bid == id {
				bucket[i] = bucket[len(bucket)-1]
				bucket = bucket[:len(bucket)-1]
				break
			}
		}
		if len(bucket) == 0 {
			delete(x.buckets[t], sig)
		} else {
			x.buckets[t][sig] = bucket
		}
	}
	delete(x.vecs, id)
	delete(x.sigs, id)
}

func (x *refIndex) candidates(q feature.Vector) []ID {
	seen := make(map[ID]struct{})
	var out []ID
	for t := 0; t < x.tables; t++ {
		sig := x.signature(t, q)
		for _, id := range x.buckets[t][sig] {
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			out = append(out, id)
		}
	}
	return out
}

func (x *refIndex) nearest(q feature.Vector, k int) []Neighbor {
	cands := x.candidates(q)
	ns := make([]Neighbor, 0, len(cands))
	for _, id := range cands {
		ns = append(ns, Neighbor{ID: id, Distance: feature.MustEuclidean(q, x.vecs[id])})
	}
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].Distance != ns[j].Distance {
			return ns[i].Distance < ns[j].Distance
		}
		return ns[i].ID < ns[j].ID
	})
	if len(ns) > k {
		ns = ns[:k]
	}
	return ns
}

func randVec(rng *rand.Rand, dim int) feature.Vector {
	v := make(feature.Vector, dim)
	for d := range v {
		v[d] = rng.NormFloat64()
	}
	return v
}

func TestDifferentialVsReference(t *testing.T) {
	const (
		dim    = 16
		bits   = 6
		tables = 3
		seed   = 99
		ops    = 4000
	)
	arena, err := NewHyperplane(dim, bits, tables, seed)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefIndex(dim, bits, tables, seed)

	rng := rand.New(rand.NewSource(1234))
	var live []ID
	nextID := ID(0)
	for op := 0; op < ops; op++ {
		switch r := rng.Float64(); {
		case r < 0.45: // insert new
			id := nextID
			nextID++
			v := randVec(rng, dim)
			if err := arena.Insert(id, v); err != nil {
				t.Fatal(err)
			}
			ref.insert(id, v)
			live = append(live, id)
		case r < 0.55 && len(live) > 0: // re-insert existing id
			id := live[rng.Intn(len(live))]
			v := randVec(rng, dim)
			if err := arena.Insert(id, v); err != nil {
				t.Fatal(err)
			}
			ref.insert(id, v)
		case r < 0.75 && len(live) > 0: // remove
			i := rng.Intn(len(live))
			id := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			arena.Remove(id)
			ref.remove(id)
		default: // query
			q := randVec(rng, dim)
			k := 1 + rng.Intn(8)
			if rng.Float64() < 0.1 {
				k = 40 + rng.Intn(30) // a large k too
			}
			got, err := arena.Nearest(q, k)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.nearest(q, k)
			if len(got) != len(want) {
				t.Fatalf("op %d: got %d neighbors, want %d", op, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("op %d neighbor %d: got %+v, want %+v", op, i, got[i], want[i])
				}
			}
			gotC, err := arena.CandidatesInto(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDSet(gotC, ref.candidates(q)) {
				t.Fatalf("op %d: candidate sets differ", op)
			}
		}
		if arena.Len() != len(ref.vecs) {
			t.Fatalf("op %d: arena Len %d, ref %d", op, arena.Len(), len(ref.vecs))
		}
	}
}

func sameIDSet(a, b []ID) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[ID]struct{}, len(a))
	for _, id := range a {
		set[id] = struct{}{}
	}
	for _, id := range b {
		if _, ok := set[id]; !ok {
			return false
		}
	}
	return true
}

// TestDifferentialSignatureChains pins the blocked signature kernels to
// the one-row-at-a-time reference across bit widths whose plane count
// fills whole blocks of 16, part of one, or spills into the next.
func TestDifferentialSignatureChains(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, bits := range []int{1, 2, 3, 4, 5, 7, 8, 11, 12, 17, 64} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			const dim = 33
			arena, err := NewHyperplane(dim, bits, 2, 7)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefIndex(dim, bits, 2, 7)
			got := make([]uint64, 2)
			for i := 0; i < 50; i++ {
				v := randVec(rng, dim)
				arena.fam.project(v, got)
				for tb := range got {
					if want := ref.signature(tb, v); got[tb] != want {
						t.Fatalf("table %d vec %d: signature %x, want %x", tb, i, got[tb], want)
					}
				}
			}
		})
	}
}
