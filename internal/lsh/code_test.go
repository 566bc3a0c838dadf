package lsh

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"approxcache/internal/cpu"
	"approxcache/internal/feature"
)

// codeCase decodes a fuzz input into a query code, a code arena of
// nslots slots and a candidate list over it: the bytes are read
// cyclically, a mode byte pins codes to 0 or 255 (the widest
// differences), and candidates name slots out of order, some more than
// once.
func codeCase(data []byte, ncands uint8) (q [codeDims]uint8, codes []uint8, cands []int32) {
	next := func(i int) uint8 {
		if len(data) == 0 {
			return uint8(i * 37)
		}
		return data[i%len(data)]
	}
	mode := next(0) % 4
	code := func(c []uint8, off int) {
		for i := range c {
			v := next(off + i)
			switch {
			case mode == 1: // only the extremes
				v = 255 * (v & 1)
			case mode == 2 && v%3 == 0:
				v = 0
			case mode == 2 && v%3 == 1:
				v = 255
			}
			c[i] = v
		}
	}
	code(q[:], 1)
	nslots := int(ncands)%23 + 1
	codes = make([]uint8, nslots*codeDims)
	for s := 0; s < nslots; s++ {
		code(codes[s*codeDims:(s+1)*codeDims], 7+s*codeDims)
	}
	cands = make([]int32, int(ncands)%40)
	for i := range cands {
		cands[i] = int32((i*7 + int(next(i+3))) % nslots)
	}
	return q, codes, cands
}

// codeDistGo is the squared distance between codes a and b, the
// reference the kernel is held to.
func codeDistGo(a, b *[codeDims]uint8) int32 {
	var s int32
	for i := range a {
		d := int32(a[i]) - int32(b[i])
		s += d * d
	}
	return s
}

// keptByDistance is the filter's specification: the candidates whose
// codeDistGo distance from q is at most limit, in order.
func keptByDistance(q *[codeDims]uint8, codes []uint8, cands []int32, limit int32) []int32 {
	var out []int32
	for _, s := range cands {
		if codeDistGo(q, (*[codeDims]uint8)(codes[int(s)*codeDims:])) <= limit {
			out = append(out, s)
		}
	}
	return out
}

// FuzzCodeDist holds the AVX2 code filter to its specification: it
// keeps exactly the candidates whose codeDistGo distance is within the
// limit, in order. The limit is drawn from the candidates' own
// distances (exactly, and one either side), so a compare off by one
// shows; counts cover every remainder mod 4, so the padded last group
// runs with its first candidate kept and dropped.
func FuzzCodeDist(f *testing.F) {
	f.Add([]byte{0}, uint8(0), uint8(0), int8(0))
	f.Add([]byte{1, 2, 3}, uint8(5), uint8(2), int8(0))
	f.Add([]byte{1, 9, 200, 7}, uint8(6), uint8(5), int8(-1))
	f.Add([]byte{2, 0, 255, 128, 64}, uint8(7), uint8(3), int8(1))
	f.Add([]byte{5, 250, 3, 17, 99, 4}, uint8(8), uint8(7), int8(0))
	f.Add([]byte{1}, uint8(9), uint8(1), int8(0))
	f.Add([]byte{6, 40, 41, 39, 200, 13, 77}, uint8(31), uint8(30), int8(0))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint8(36), uint8(33), int8(0))
	f.Add([]byte{7, 8, 9}, uint8(2), uint8(0), int8(0))
	f.Add([]byte{7, 8, 9}, uint8(3), uint8(1), int8(-1))
	f.Fuzz(func(t *testing.T, data []byte, ncands, pick uint8, nudge int8) {
		if !cpu.HasAVX2 {
			t.Skip("host has no AVX2: the lookup never filters here")
		}
		q, codes, cands := codeCase(data, ncands)
		limit := int32(maxCodeDist2)
		if len(cands) > 0 {
			s := cands[int(pick)%len(cands)]
			limit = codeDistGo(&q, (*[codeDims]uint8)(codes[int(s)*codeDims:])) + int32(nudge%2)
		}
		want := keptByDistance(&q, codes, cands, limit)
		got := slices.Clone(cands)
		if n := filterCodes(&q, codes, got, limit); !slices.Equal(got[:n], want) {
			t.Fatalf("filter at limit %d kept %v, want %v (of %v)", limit, got[:n], want, cands)
		}
	})
}

// TestCodeBoundsVector pins encode's promise: a coded vector's code is
// within half a step (plus rounding) of 255·x in each of its first 64
// dimensions, and a vector with a component out of that range, or any
// non-finite component, is not coded.
func TestCodeBoundsVector(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lo, hi := -0.5/255, 255.5/255
	edges := []float64{0, 1, lo, math.Nextafter(lo, 0), math.Nextafter(lo, -1), hi, math.Nextafter(hi, 0),
		0.5 / 255, 1.5 / 255, 254.5 / 255, math.Copysign(0, -1), math.SmallestNonzeroFloat64}
	for trial := 0; trial < 2000; trial++ {
		dim := []int{1, 7, 63, 64, 65, 80}[trial%6]
		v := make(feature.Vector, dim)
		for d := range v {
			v[d] = rng.Float64()
			if rng.Intn(4) == 0 {
				v[d] = edges[rng.Intn(len(edges))]
			}
		}
		var c [codeDims]uint8
		coded := encode(v, &c)
		inRange := true
		for d, x := range v {
			if d < codeDims {
				y := 255 * x
				inRange = inRange && y >= -0.5 && y < 255.5
				if coded && math.Abs(float64(c[d])-y) > 0.5+1e-12 {
					t.Fatalf("dim %d: code %d of %v (255·x = %v) is more than half a step off", d, c[d], x, y)
				}
			}
		}
		for d := dim; d < codeDims; d++ {
			if c[d] != 0 {
				t.Fatalf("dim %d of a %d-dim vector coded %d, want 0", d, dim, c[d])
			}
		}
		if coded != inRange {
			t.Fatalf("%v: coded %v, in range %v", v, coded, inRange)
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.01, 1.01} {
			w := v.Clone()
			d := rng.Intn(dim)
			w[d] = bad
			finite := !math.IsNaN(bad) && !math.IsInf(bad, 0)
			if encode(w, &c) && (!finite || d < codeDims) {
				t.Fatalf("%v coded, with %v at dimension %d", w, bad, d)
			}
		}
		if dim > codeDims {
			w := v.Clone()
			w[codeDims+rng.Intn(dim-codeDims)] = math.NaN()
			if encode(w, &c) {
				t.Fatalf("a NaN past the code's dimensions coded %v", w)
			}
		}
	}
}

// unfiltered is NearestWithinInto without the code filter: gather, then
// the scan over every gathered candidate.
func unfiltered(x *HyperplaneIndex, q feature.Vector, k int, radius float64) []Neighbor {
	sc := x.getScratch()
	defer x.scratch.Put(sc)
	var sel kSelector
	sel.reset(k, nil)
	x.mu.RLock()
	defer x.mu.RUnlock()
	x.gather(q, sc)
	scanSlots(q, x.arena, x.dim, x.slotID, sc.cands, len(sc.cands), &sel, sqBound(radius))
	return finishWithin(&sel, radius)
}

// filterCounts reports how many candidates a lookup of q at radius
// gathers and how many of them pass the code filter.
func filterCounts(x *HyperplaneIndex, q feature.Vector, radius float64) (gathered, kept int) {
	limit, ok := codeLimit(radius)
	var qc [codeDims]uint8
	sc := new(queryScratch)
	x.mu.RLock()
	defer x.mu.RUnlock()
	x.gather(q, sc)
	if !ok || !encode(q, &qc) || len(x.uncoded) > 0 {
		return len(sc.cands), len(sc.cands)
	}
	return len(sc.cands), len(keptByDistance(&qc, x.codes, sc.cands, limit))
}

// boundaryPair returns a query and a row whose code distance is as far
// beyond 255 times their true distance as rounding allows in n ≤ 64
// dimensions: every query component sits just below a half step
// (255·q = a + 0.49), and the row is q + δ in each with 255·δ = j +
// 0.02, so each code difference is j + 1 against a true j + 0.02. The
// row's code distance exceeds 255·‖q − x‖ by 0.98·√n: 7.84 code steps
// at 64 dimensions, which only the bound's √64 term covers.
func boundaryPair(rng *rand.Rand, dim, j int) (q, x feature.Vector) {
	q = make(feature.Vector, dim)
	x = make(feature.Vector, dim)
	for d := range q {
		a := float64(rng.Intn(200))
		q[d] = (a + 0.49) / 255
		x[d] = q[d]
		if d < codeDims {
			x[d] = q[d] + (float64(j)+0.02)/255
		}
	}
	return q, x
}

// TestCodeFilterKeepsScan is the filter's contract: NearestWithinInto
// returns exactly what the scan of every gathered candidate returns —
// same neighbours, same distances, same order — at every k from 1 to 8
// and at radii on both sides of each neighbour's distance. The rows
// include boundary pairs (code distance 0.98·√n past 255·r), rows
// within one code step of the radius on both sides, rows and queries
// with negative, > 1 and NaN components, and dimensions below 64. It
// runs with AVX2 as the host has it at every dimension, and with
// cpu.HasAVX2 cleared (no filter) at 80, and checks that the in-range
// phase drops most gathered candidates.
func TestCodeFilterKeepsScan(t *testing.T) {
	for _, dim := range []int{5, 63, 64, 80} {
		t.Run(fmt.Sprintf("dim%d", dim), func(t *testing.T) {
			codeFilterWorkload(t, dim)
		})
	}
	if cpu.HasAVX2 {
		defer func() { cpu.HasAVX2 = true }()
		cpu.HasAVX2 = false
		t.Run("dim80/noavx2", func(t *testing.T) {
			codeFilterWorkload(t, 80)
		})
	}
}

func codeFilterWorkload(t *testing.T, dim int) {
	rng := rand.New(rand.NewSource(int64(dim)))
	r := DefaultVoteConfig().MaxDistance
	x, err := NewHyperplane(dim, 2, 2, 3) // few bits: crowded buckets
	if err != nil {
		t.Fatal(err)
	}
	next := ID(1)
	insert := func(v feature.Vector) ID {
		id := next
		next++
		if err := x.Insert(id, v); err != nil {
			t.Fatal(err)
		}
		return id
	}
	var queries []feature.Vector
	// Descriptor-like rows: clusters in the positive orthant, clamped
	// into [0, 1].
	for _, v := range clusteredVecs(rng, 160, dim, 8, 0.05) {
		for d := range v {
			v[d] = min(max(v[d], 0), 1)
		}
		insert(v)
		if len(queries) < 12 {
			queries = append(queries, v)
		}
	}
	// Boundary pairs, the row at the radius and one code step either
	// side of it.
	for i := 0; i < 6; i++ {
		j := int(255*r/math.Sqrt(float64(min(dim, codeDims)))) - 1 + i%3
		q, row := boundaryPair(rng, dim, j)
		insert(row)
		queries = append(queries, q)
		for _, step := range []float64{-1, 1} {
			w := row.Clone()
			for d := range w[:min(dim, codeDims)] {
				w[d] += step / 255 / math.Sqrt(float64(min(dim, codeDims)))
			}
			insert(w)
		}
	}
	// check compares every query's lookups with the unfiltered scan and,
	// while every vector is finite, with NearestInto cut at the radius
	// too (a NaN behind a block the scan gave up on is never reached, so
	// there the two specifications part).
	check := func(phase string, finite bool) (gathered, kept int) {
		for qi, q := range queries {
			full, err := x.NearestInto(q, 8, nil)
			if err != nil {
				t.Fatal(err)
			}
			// 8.5 is past 7.97, where the bound covers every two codes.
			radii := []float64{0, 1e-300, r, 2 * r, r / 2, 8.5, math.Inf(1), math.NaN(), -1}
			for _, n := range full {
				radii = append(radii, n.Distance, math.Nextafter(n.Distance, 0))
			}
			for k := 1; k <= 8; k++ {
				fullK, err := x.NearestInto(q, k, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, radius := range radii {
					got, err := x.NearestWithinInto(q, k, radius, nil)
					if err != nil {
						t.Fatal(err)
					}
					if want := unfiltered(x, q, k, radius); !sameNeighbors(got, want) {
						t.Fatalf("%s query %d k=%d r=%v:\n got  %v\n want %v", phase, qi, k, radius, got, want)
					}
					if want := truncateAt(fullK, radius); finite && !sameNeighbors(got, want) {
						t.Fatalf("%s query %d k=%d r=%v: got %v, truncated NearestInto %v", phase, qi, k, radius, got, want)
					}
				}
			}
			g, kp := filterCounts(x, q, r)
			gathered += g
			kept += kp
		}
		return gathered, kept
	}
	if g, k := check("in range", true); k*2 > g {
		t.Fatalf("the code filter kept %d of %d gathered candidates at the vote radius", k, g)
	}
	// Queries out of range: each near an indexed row, with one component
	// pushed negative, past 1 or to NaN, in and past the code's
	// dimensions.
	base := len(queries)
	for i, bad := range []float64{-0.004, 1.004, math.NaN()} {
		for _, d := range []int{0, dim - 1} {
			q := queries[i].Clone()
			q[d] = bad
			queries = append(queries, q)
		}
	}
	check("odd queries", false)
	queries = queries[:base]
	// Rows out of range, each next to a query whose component there is
	// at the edge of [0, 1], so that an out-of-range code would be far
	// from the query's while the row is near: while any is indexed no
	// candidate may be dropped for its code.
	var odd []ID
	for i, bad := range []float64{-0.004, 1.004, math.NaN(), math.Inf(1)} {
		q := queries[i].Clone()
		d := i % min(dim, codeDims)
		if bad > 0.5 {
			q[d] = 1
		} else {
			q[d] = 0
		}
		row := q.Clone()
		row[d] = bad
		odd = append(odd, insert(row))
		queries = append(queries, q)
	}
	if dim > codeDims {
		row := queries[0].Clone()
		row[dim-1] = math.NaN()
		odd = append(odd, insert(row))
	}
	check("odd rows", false)
	// With them gone, the filter is back.
	for _, id := range odd {
		x.Remove(id)
	}
	if g, k := check("odd rows removed", true); k*2 > g {
		t.Fatalf("after removing the out-of-range rows the code filter kept %d of %d", k, g)
	}
}
