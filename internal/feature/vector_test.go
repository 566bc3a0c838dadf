package feature

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestVectorClone(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 9
	if v[0] != 1 {
		t.Fatalf("clone aliases original: v=%v", v)
	}
	if len(c) != 3 {
		t.Fatalf("clone dim = %d, want 3", len(c))
	}
}

func TestNorm(t *testing.T) {
	tests := []struct {
		name string
		v    Vector
		want float64
	}{
		{"zero", Vector{0, 0}, 0},
		{"unit axis", Vector{1, 0, 0}, 1},
		{"3-4-5", Vector{3, 4}, 5},
		{"empty", Vector{}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.Norm(); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Norm() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestNormalize(t *testing.T) {
	v := Vector{3, 4}
	v.Normalize()
	if !almostEqual(v.Norm(), 1, 1e-12) {
		t.Fatalf("normalized norm = %v, want 1", v.Norm())
	}
	z := Vector{0, 0}
	z.Normalize()
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("zero vector changed by Normalize: %v", z)
	}
}

func TestEuclidean(t *testing.T) {
	d, err := Euclidean(Vector{0, 0}, Vector{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d, 5, 1e-12) {
		t.Fatalf("Euclidean = %v, want 5", d)
	}
	if _, err := Euclidean(Vector{1}, Vector{1, 2}); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("want ErrDimensionMismatch, got %v", err)
	}
}

func TestMustEuclideanMismatchIsInf(t *testing.T) {
	if d := MustEuclidean(Vector{1}, Vector{1, 2}); !math.IsInf(d, 1) {
		t.Fatalf("MustEuclidean mismatch = %v, want +Inf", d)
	}
}

func randVec(r *rand.Rand, n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

// Property: Euclidean distance is symmetric, non-negative, zero on
// identity, and obeys the triangle inequality.
func TestEuclideanMetricProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(16)
		a, b, c := randVec(r, n), randVec(r, n), randVec(r, n)
		ab := MustEuclidean(a, b)
		ba := MustEuclidean(b, a)
		ac := MustEuclidean(a, c)
		cb := MustEuclidean(c, b)
		if !almostEqual(ab, ba, 1e-9) {
			return false
		}
		if ab < 0 {
			return false
		}
		if MustEuclidean(a, a) != 0 {
			return false
		}
		return ab <= ac+cb+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: normalizing any non-zero vector yields unit norm.
func TestNormalizeUnitNormProperty(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a := randVec(rr, 1+rr.Intn(16))
		if a.Norm() == 0 {
			return true
		}
		a.Normalize()
		return almostEqual(a.Norm(), 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
