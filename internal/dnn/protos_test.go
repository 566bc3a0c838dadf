package dnn

import (
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"approxcache/internal/feature"
	"approxcache/internal/vision"
)

// syntheticPrototypes returns n unit-norm dim-wide prototypes drawn
// around a few dozen shared directions, the way rendered classes
// cluster; every seventh one repeats an earlier prototype, so queries
// meet exact ties.
func syntheticPrototypes(rng *rand.Rand, n, dim int) [][]float64 {
	dirs := make([][]float64, 48)
	for i := range dirs {
		dirs[i] = make([]float64, dim)
		for d := range dirs[i] {
			dirs[i][d] = rng.NormFloat64()
		}
	}
	out := make([][]float64, n)
	for i := range out {
		if i%7 == 6 {
			out[i] = out[rng.Intn(i)]
			continue
		}
		v := make(feature.Vector, dim)
		for _, dir := range dirs {
			w := rng.NormFloat64() / float64(1+rng.Intn(8))
			for d := range v {
				v[d] += w * dir[d]
			}
		}
		for d := range v {
			v[d] += 0.05 * rng.NormFloat64()
		}
		v.Normalize()
		out[i] = v
	}
	return out
}

// TestProtoTableBoundsAndDecision checks the filter-and-refine search on
// both sides of the projection threshold (dim 288: 230 classes scan
// plainly, 231 project), with duplicate prototypes forcing ties: every
// bound is at most the exact squared distance, and the decision — class
// and both squared distances — equals a brute-force ascending-order
// scan to the bit.
func TestProtoTableBoundsAndDecision(t *testing.T) {
	const dim = 288
	for _, n := range []int{1, 2, 230, 231, 512} {
		t.Run(strconv.Itoa(n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			protos := syntheticPrototypes(rng, n, dim)
			tab, err := newProtoTable(protos, dim)
			if err != nil {
				t.Fatal(err)
			}
			if projected := tab.coords != nil; projected != (n >= 231) {
				t.Fatalf("projected = %v", projected)
			}
			var pq coords
			lb := make([]float64, n)
			ties := 0
			for trial := 0; trial < 300; trial++ {
				q := make(feature.Vector, dim)
				a, b := protos[rng.Intn(n)], protos[rng.Intn(n)]
				switch trial % 4 {
				case 0: // a prototype itself: distance 0, a tie when duplicated
					copy(q, a)
				case 1: // near a prototype
					for d := range q {
						q[d] = a[d] + 0.02*rng.NormFloat64()
					}
				case 2: // halfway between two: near-ties
					for d := range q {
						q[d] = (a[d] + b[d]) / 2
					}
				default: // anywhere
					for d := range q {
						q[d] = rng.NormFloat64()
					}
					q.Normalize()
				}

				best, d1, d2 := -1, math.Inf(1), math.Inf(1)
				exact := make([]float64, n)
				for i, p := range protos {
					d := feature.MustSqEuclidean(q, p)
					exact[i] = d
					switch {
					case d < d1:
						best, d1, d2 = i, d, d1
					case d < d2:
						d2 = d
					}
				}

				tab.lowerBounds(q, &pq, lb)
				for i, b := range lb {
					if b > exact[i] {
						t.Fatalf("trial %d: class %d bound %v > squared distance %v", trial, i, b, exact[i])
					}
				}

				gotBest, got1, got2 := tab.nearest2(q, &pq, lb)
				if gotBest != best || math.Float64bits(got1) != math.Float64bits(d1) ||
					math.Float64bits(got2) != math.Float64bits(d2) {
					t.Fatalf("trial %d: got (%d, %v, %v), scan (%d, %v, %v)", trial, gotBest, got1, got2, best, d1, d2)
				}
				if d1 == d2 {
					ties++
				}
			}
			if n > 6 && ties == 0 {
				t.Fatal("no query met a tie")
			}
		})
	}
}

// TestDecideConcurrent: decisions share the table and draw their
// scratch from one pool, so concurrent callers must each get the answer
// a lone caller gets.
func TestDecideConcurrent(t *testing.T) {
	cs, err := vision.NewClassSet(256, 48, 48, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClassifier(MobileNetV2, cs, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	type decision struct {
		best int
		conf float64
	}
	ims := make([]*vision.Image, 64)
	want := make([]decision, len(ims))
	for i := range ims {
		if ims[i], err = cs.Render(rng.Intn(256), vision.DefaultPerturbation(), rng); err != nil {
			t.Fatal(err)
		}
		if want[i].best, want[i].conf, err = c.decide(ims[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				for i := range ims {
					i := (i + w*17) % len(ims)
					best, conf, err := c.decide(ims[i])
					if err != nil || best != want[i].best || conf != want[i].conf {
						t.Errorf("worker %d frame %d: (%d, %v, %v), want %+v", w, i, best, conf, err, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
