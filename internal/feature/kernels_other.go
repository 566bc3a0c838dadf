//go:build !amd64

package feature

// hasAVX2 is false off amd64: the Go chains are the only kernels.
const hasAVX2 = false

func sqDist4AVX2(q, a0, a1, a2, a3 []float64, bound float64, s *[4]float64) bool {
	panic("feature: no AVX2 kernels on this architecture")
}

func sqDist4x2AVX2(q []float64, rows *[8][]float64, bound float64, s *[8]float64) (ok0, ok1 bool) {
	panic("feature: no AVX2 kernels on this architecture")
}
