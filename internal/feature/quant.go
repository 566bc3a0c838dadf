package feature

import "math"

// Int8 quantization primitives for the v2 peer wire format (p2p codec2):
// a vector travels as an int8 code vector with a per-vector affine map
// value ≈ offset + scale·code, one-eighth the bytes of float64.
//
// All rounding is math.Round (half away from zero), fixed as part of
// the wire determinism contract: the same vector always quantizes to
// the same codes on every platform.

// QuantRange is the symmetric code range: codes live in
// [-QuantRange, QuantRange]. 127 keeps the map invertible within int8
// without ever producing -128.
const QuantRange = 127

// Quant describes one vector's affine quantization map.
type Quant struct {
	// Scale and Offset reconstruct values: v[i] ≈ Offset + Scale·code[i].
	Scale  float64
	Offset float64
}

// QuantizeInto writes v's int8 codes into dst (which must have len(v))
// and returns the affine map. The map centers the code range on the
// vector's own min/max, so flat vectors quantize to all-zero codes with
// Scale 0.
func QuantizeInto(v Vector, dst []int8) Quant {
	var q Quant
	if len(v) == 0 {
		return q
	}
	min, max := v[0], v[0]
	for _, x := range v[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	q.Offset = (max + min) / 2
	q.Scale = (max - min) / (2 * QuantRange)
	inv := 0.0
	if q.Scale != 0 {
		inv = 1 / q.Scale
	}
	for i, x := range v {
		c := math.Round((x - q.Offset) * inv)
		if c > QuantRange {
			c = QuantRange
		} else if c < -QuantRange {
			c = -QuantRange
		}
		dst[i] = int8(c)
	}
	return q
}

// DequantizeInto reconstructs dst[i] = offset + scale·int8(codes[i])
// from raw two's-complement code bytes, the inverse of QuantizeInto's
// affine map (up to the quantization step). codes must have at least
// len(dst) bytes; taking the wire representation directly avoids an
// []int8 conversion copy on the receive path.
func DequantizeInto(dst Vector, codes []byte, scale, offset float64) {
	codes = codes[:len(dst)]
	for i := range dst {
		dst[i] = offset + scale*float64(int8(codes[i]))
	}
}

// MustSqEuclidean is MustEuclidean without the final square root, for
// hot paths that only compare distances (ordering by squared L2 equals
// ordering by L2). Mismatched dimensions return +Inf.
func MustSqEuclidean(a, b Vector) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}
