// Package feature defines the feature-vector representation used as the
// approximate-cache key space, the distance metrics over it, and the
// extractors that map camera frames into it.
//
// Approximate computation reuse works in any feature space where
// "visually the same scene" implies "nearby vectors". The extractors in
// this package (downsampled luminance grid, intensity histogram, and
// their concatenation) provide that metric structure for the synthetic
// frames produced by internal/vision.
package feature

import (
	"errors"
	"fmt"
	"math"
)

// Vector is a dense feature vector. Vectors compared with the functions
// in this package must have equal dimension.
type Vector []float64

// ErrDimensionMismatch is returned when two vectors of different
// dimensions are compared.
var ErrDimensionMismatch = errors.New("feature: dimension mismatch")

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Norm returns the L2 norm of v.
func (v Vector) Norm() float64 {
	var sum float64
	for _, x := range v {
		sum += x * x
	}
	return math.Sqrt(sum)
}

// Normalize scales v in place to unit L2 norm. A zero vector is left
// unchanged.
func (v Vector) Normalize() {
	n := v.Norm()
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= n
	}
}

// Euclidean returns the L2 distance between a and b.
func Euclidean(a, b Vector) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrDimensionMismatch, len(a), len(b))
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum), nil
}

// MustEuclidean is Euclidean for callers that have already validated
// dimensions (hot paths such as kNN scans). Mismatched dimensions return
// +Inf, which callers treat as "infinitely far".
func MustEuclidean(a, b Vector) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}
